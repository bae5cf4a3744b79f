// Unit tests for the cell wire format (frame/).
#include <gtest/gtest.h>

#include <string_view>

#include "common/crc32.hpp"
#include "frame/cell_frame.hpp"

namespace sirius::frame {
namespace {

CellFrame sample_frame() {
  CellFrame f;
  f.flow = 0x1234'5678'9abcll;
  f.seq = 42;
  f.src_node = 7;
  f.dst_node = 120;
  f.dst_server = 2'881;
  f.second_hop = true;
  f.cc = {CcSignal::Kind::kGrant, 33};
  f.clock_phase_ps = 0xdeadbeef;
  f.failed_page_index = 3;
  f.failed_page_bits = 0b0010'0100;
  for (int i = 0; i < 200; ++i) {
    f.payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  return f;
}

TEST(CellCodec, GeometryOfDefaultCell) {
  CellCodec codec;  // 562 B, 4 B preamble
  EXPECT_EQ(codec.cell_size().in_bytes(), 562);
  // 562 - 4 preamble - 31 header - 4 CRC = 523 payload bytes.
  EXPECT_EQ(codec.payload_capacity(), 523);
}

TEST(CellCodec, EncodeProducesExactCellSize) {
  CellCodec codec;
  const auto wire = codec.encode(sample_frame());
  EXPECT_EQ(wire.size(), 562u);
}

TEST(CellCodec, RoundTrip) {
  CellCodec codec;
  const CellFrame f = sample_frame();
  const auto wire = codec.encode(f);
  const auto decoded = codec.decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, f);
}

TEST(CellCodec, RoundTripEmptyPayload) {
  CellCodec codec;
  CellFrame f;
  f.flow = 1;
  const auto decoded = codec.decode(codec.encode(f));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
  EXPECT_EQ(decoded->cc.kind, CcSignal::Kind::kNone);
}

TEST(CellCodec, FullPayloadFits) {
  CellCodec codec;
  CellFrame f;
  f.payload.assign(static_cast<std::size_t>(codec.payload_capacity()), 0xab);
  const auto decoded = codec.decode(codec.encode(f));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(),
            static_cast<std::size_t>(codec.payload_capacity()));
}

TEST(CellCodec, CrcDetectsBitFlips) {
  CellCodec codec;
  auto wire = codec.encode(sample_frame());
  // Flip one bit in every region after the preamble: header, payload, pad.
  for (const std::size_t pos : {5u, 40u, 400u, 557u}) {
    auto corrupted = wire;
    corrupted[pos] ^= 0x10;
    EXPECT_FALSE(codec.decode(corrupted).has_value()) << "pos " << pos;
  }
  // Preamble corruption is invisible to the CRC (it is training pattern).
  auto pre = wire;
  pre[0] ^= 0xff;
  EXPECT_TRUE(codec.decode(pre).has_value());
}

TEST(CellCodec, WrongSizeRejected) {
  CellCodec codec;
  auto wire = codec.encode(sample_frame());
  wire.pop_back();
  EXPECT_FALSE(codec.decode(wire).has_value());
}

TEST(CellCodec, Crc32KnownVector) {
  // The cell trailer is the shared CRC-32 (check value CRC-32("123456789")
  // = 0xCBF43926) of everything between the preamble and the trailer,
  // stored little-endian.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  CellCodec codec;
  const auto wire = codec.encode(sample_frame());
  const std::size_t body = static_cast<std::size_t>(codec.preamble_bytes());
  const std::size_t trailer = wire.size() - CellCodec::kCrcBytes;
  const std::uint32_t expected = crc32(
      std::span<const std::uint8_t>(wire.data() + body, trailer - body));
  const std::uint32_t stored =
      static_cast<std::uint32_t>(wire[trailer]) |
      static_cast<std::uint32_t>(wire[trailer + 1]) << 8 |
      static_cast<std::uint32_t>(wire[trailer + 2]) << 16 |
      static_cast<std::uint32_t>(wire[trailer + 3]) << 24;
  EXPECT_EQ(stored, expected);
}

TEST(CellCodec, AllCcSignalKindsSurvive) {
  CellCodec codec;
  for (const auto kind :
       {CcSignal::Kind::kNone, CcSignal::Kind::kRequest,
        CcSignal::Kind::kGrant, CcSignal::Kind::kRelease}) {
    CellFrame f;
    f.cc = {kind, 99};
    const auto decoded = codec.decode(codec.encode(f));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->cc.kind, kind);
  }
}

TEST(CellCodec, SmallCellsStillWork) {
  // The Fig. 11 sweep shrinks cells to 56 B at a 1 ns guardband; the frame
  // must still fit (with a thin payload).
  CellCodec codec(DataSize::bytes(56), 2);
  EXPECT_GT(codec.payload_capacity(), 0);
  CellFrame f;
  f.flow = 77;
  f.payload = {1, 2, 3};
  const auto decoded = codec.decode(codec.encode(f));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

}  // namespace
}  // namespace sirius::frame

// Normalised server goodput (Fig. 9b): total bytes delivered to
// applications during the measurement window, divided by simulated time
// and by the aggregate server bandwidth N * R.
#pragma once

#include <cstdint>

#include "ckpt/io.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sirius::stats {

class GoodputMeter {
 public:
  GoodputMeter(std::int32_t servers, DataRate server_rate)
      : servers_(servers), server_rate_(server_rate) {}

  void deliver(DataSize bytes) { delivered_ += bytes; }

  [[nodiscard]] DataSize delivered() const { return delivered_; }

  /// Goodput over [0, horizon], normalised by N * R (1.0 = every server
  /// receiving at line rate for the whole window).
  [[nodiscard]] double normalized(Time horizon) const;

  /// Checkpoint: geometry is validated against the constructed meter.
  void serialize(ckpt::Writer& w) const;
  bool restore(ckpt::Reader& r);

 private:
  std::int32_t servers_;
  DataRate server_rate_;
  DataSize delivered_;
};

}  // namespace sirius::stats

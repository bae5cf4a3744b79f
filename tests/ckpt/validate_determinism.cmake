# CTest driver for the checkpoint determinism contract. Invoked as:
#
#   cmake -DCLI=<sirius_cli exe> -DOUT_DIR=<scratch dir>
#         -P validate_determinism.cmake
#
# Runs the CI fault scenario (rack 3 fail-stops at 60 us, link 2->5 fully
# grey 100-160 us) once straight with checkpoints on a 25 us cadence, then
# again restored from the snapshot at t=125 us — *inside* the grey window —
# and asserts the exported metrics series is byte-identical. It then
# resumes from ck-125-heap-order.ckpt, the same snapshot as written by the
# simulator before its retransmission timers moved to a timer wheel (they
# are stored in heap order there, not firing order), and asserts the same
# series: files written by older builds still load and resume exactly.
# Also asserts
# the defensive paths: a garbage --restore file and a checkpoint pattern in
# a nonexistent directory are both exit 2 with a clear message, and a
# healthy `bisect` reports a clean run with exit 0.
file(MAKE_DIRECTORY ${OUT_DIR})
set(NET --racks 8 --servers-per-rack 4 --uplinks 4 --flows 400 --load 0.5
        --fault 3@60 "--grey;2>5@1.0@100-160")

execute_process(
  COMMAND ${CLI} run ${NET}
          --metrics-out ${OUT_DIR}/straight.jsonl
          --checkpoint-every-us 25 --checkpoint-out ${OUT_DIR}/ck-{t}.ckpt
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "straight run failed (exit ${rc}):\n${out}${err}")
endif()
if(NOT EXISTS ${OUT_DIR}/ck-125.ckpt)
  message(FATAL_ERROR "straight run left no ck-125.ckpt snapshot")
endif()

execute_process(
  COMMAND ${CLI} run ${NET}
          --metrics-out ${OUT_DIR}/resumed.jsonl
          --restore ${OUT_DIR}/ck-125.ckpt
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed run failed (exit ${rc}):\n${out}${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/straight.jsonl ${OUT_DIR}/resumed.jsonl
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "metrics series diverged: a run resumed from the mid-grey-fault "
    "snapshot must be bit-identical to the straight run")
endif()

# ck-125-heap-order.ckpt was written by the straight run above, built from
# the tree before the timer wheel (commit 8e85a52), with:
#   sirius_cli run --racks 8 --servers-per-rack 4 --uplinks 4 --flows 400 \
#     --load 0.5 --fault 3@60 --grey "2>5@1.0@100-160" \
#     --checkpoint-every-us 25 --checkpoint-out "ck-{t}.ckpt"
execute_process(
  COMMAND ${CLI} run ${NET}
          --metrics-out ${OUT_DIR}/resumed_heap_order.jsonl
          --restore ${CMAKE_CURRENT_LIST_DIR}/ck-125-heap-order.ckpt
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "run resumed from the heap-order fixture failed (exit ${rc}):\n${out}${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/straight.jsonl ${OUT_DIR}/resumed_heap_order.jsonl
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "metrics series diverged: a run resumed from the heap-order fixture "
    "must be bit-identical to the straight run")
endif()

# ---- defensive paths --------------------------------------------------------

file(WRITE ${OUT_DIR}/garbage.ckpt "this is not a checkpoint at all")
execute_process(
  COMMAND ${CLI} run ${NET} --restore ${OUT_DIR}/garbage.ckpt
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "garbage --restore exited ${rc}, expected 2")
endif()
if(NOT err MATCHES "restore")
  message(FATAL_ERROR "garbage --restore error message missing:\n${err}")
endif()

execute_process(
  COMMAND ${CLI} run ${NET}
          --checkpoint-every-us 25
          --checkpoint-out ${OUT_DIR}/no/such/dir/ck-{t}.ckpt
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --checkpoint-out dir exited ${rc}, expected 2")
endif()

# ---- bisect on a healthy run ------------------------------------------------

execute_process(
  COMMAND ${CLI} bisect --racks 8 --servers-per-rack 4 --uplinks 4
          --flows 200 --load 0.5 --fault 3@60
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "healthy bisect exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "no invariant violations")
  message(FATAL_ERROR "bisect did not report a clean run:\n${out}")
endif()

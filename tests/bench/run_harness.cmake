# Runs the repository benchmark (benchmark/run.py) for ctest.
#
#   cmake -DPYTHON=<python3> -DRUN_PY=<benchmark/run.py> -DTARGET_DIR=<dir>
#         [-DWORKLOAD=<name>] -P run_harness.cmake
#
# Without WORKLOAD this is the build fixture: run.py builds the harness into
# TARGET_DIR (its CARGO_TARGET_DIR) and then hands it a workload name no
# spec carries, which the harness answers with its usage text and exit 64.
# Any other exit means the build failed. With WORKLOAD it runs that workload
# at seed 1 for one second and requires exit 0 and a last stdout line that
# reports "correct": true — so a change that moves a seed-1 digest pin, or
# breaks any other check, fails here.
foreach(var PYTHON RUN_PY TARGET_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_harness.cmake: ${var} is required")
  endif()
endforeach()

get_filename_component(root "${RUN_PY}" DIRECTORY)
get_filename_component(root "${root}" DIRECTORY)

if(NOT DEFINED WORKLOAD OR WORKLOAD STREQUAL "")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CARGO_TARGET_DIR=${TARGET_DIR}
            ${PYTHON} ${RUN_PY} --workload no-such-workload
    WORKING_DIRECTORY ${root}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 64)
    message(FATAL_ERROR
      "benchmark harness build failed (exit ${rc}):\n${out}\n${err}")
  endif()
  message(STATUS "benchmark harness built in ${TARGET_DIR}")
  return()
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CARGO_TARGET_DIR=${TARGET_DIR}
          ${PYTHON} ${RUN_PY} --workload ${WORKLOAD} --seed 1 --seconds 1
          --trace 0
  WORKING_DIRECTORY ${root}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(STRIP "${out}" stripped)
string(REGEX REPLACE ".*\n" "" last "${stripped}")
if(NOT rc EQUAL 0 OR NOT last MATCHES "\"correct\": true")
  message(FATAL_ERROR
    "benchmark workload ${WORKLOAD} failed (exit ${rc}); last line:\n"
    "${last}\nstderr:\n${err}")
endif()
message(STATUS "${WORKLOAD}: ${last}")

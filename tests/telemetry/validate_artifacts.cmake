# CTest driver for the telemetry smoke run. Invoked as:
#
#   cmake -DCLI=<sirius_cli exe> -DOUT_DIR=<scratch dir>
#         -P validate_artifacts.cmake
#
# Runs one small instrumented simulation through sirius_cli, then
# JSON-validates every artifact with CMake's string(JSON) parser:
#   * the manifest is schema "sirius.run.v1" with results + artifacts,
#   * the trace is Chrome trace-event JSON with a non-empty event array,
#   * the metrics JSONL rows parse and carry the core counters.
# Finally asserts the CLI rejects bad options with exit code 2 before any
# simulation work: an unknown option, malformed numbers, a non-positive
# metrics cadence, and a flame path whose directory does not exist.
file(MAKE_DIRECTORY ${OUT_DIR})
set(METRICS ${OUT_DIR}/metrics.jsonl)
set(TRACE ${OUT_DIR}/trace.json)
set(MANIFEST ${OUT_DIR}/manifest.json)

execute_process(
  COMMAND ${CLI} run --racks 8 --servers-per-rack 2 --flows 200 --load 0.4
          --metrics-out ${METRICS} --metrics-every-us 20
          --trace-events ${TRACE} --manifest ${MANIFEST}
          --flight-recorder 64 --profile
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "instrumented run failed (exit ${rc}):\n${out}${err}")
endif()

# ---- manifest ---------------------------------------------------------------
file(READ ${MANIFEST} manifest)
string(JSON schema GET "${manifest}" schema)
if(NOT schema STREQUAL "sirius.run.v1")
  message(FATAL_ERROR "manifest schema is '${schema}', expected sirius.run.v1")
endif()
string(JSON goodput GET "${manifest}" results goodput)
if(goodput LESS_EQUAL 0)
  message(FATAL_ERROR "manifest results.goodput = ${goodput}, expected > 0")
endif()
string(JSON delivered GET "${manifest}" metrics sim.cells_delivered)
if(delivered LESS_EQUAL 0)
  message(FATAL_ERROR "manifest metrics.sim.cells_delivered = ${delivered}")
endif()
string(JSON n_artifacts LENGTH "${manifest}" artifacts written)
if(n_artifacts LESS 2)
  message(FATAL_ERROR "manifest lists ${n_artifacts} artifacts, expected 2")
endif()
string(JSON ok0 GET "${manifest}" artifacts written 0 ok)
if(NOT ok0 STREQUAL "ON")
  message(FATAL_ERROR "manifest artifact 0 not ok: ${ok0}")
endif()

# ---- trace ------------------------------------------------------------------
file(READ ${TRACE} trace)
string(JSON unit GET "${trace}" displayTimeUnit)
if(NOT unit STREQUAL "ns")
  message(FATAL_ERROR "trace displayTimeUnit is '${unit}', expected ns")
endif()
string(JSON n_events LENGTH "${trace}" traceEvents)
if(n_events LESS 10)
  message(FATAL_ERROR "trace has only ${n_events} events")
endif()

# ---- metrics time series ----------------------------------------------------
file(STRINGS ${METRICS} rows)
list(LENGTH rows n_rows)
if(n_rows LESS 2)
  message(FATAL_ERROR "metrics series has only ${n_rows} rows")
endif()
list(GET rows 0 first_row)
string(JSON t0 GET "${first_row}" t_us)
string(JSON injected0 GET "${first_row}" sim.cells_injected)
list(GET rows -1 last_row)
string(JSON injected_last GET "${last_row}" sim.cells_injected)
if(injected_last LESS_EQUAL 0)
  message(FATAL_ERROR
    "final sim.cells_injected = ${injected_last}, expected > 0")
endif()

# ---- unknown options are hard errors ----------------------------------------
execute_process(
  COMMAND ${CLI} run --definitely-not-a-flag 3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "unknown option exited ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "unknown option --definitely-not-a-flag")
  message(FATAL_ERROR "unknown-option error message missing:\n${err}")
endif()

# ---- a number must parse in full --------------------------------------------
foreach(bad "--fail;abc" "--flows;2e2" "--racks;x8")
  execute_process(
    COMMAND ${CLI} run ${bad}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  list(GET bad 0 flag)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "run ${bad} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "error: ${flag}: malformed number" OR
     NOT out STREQUAL "")
    message(FATAL_ERROR "run ${bad} was not rejected upfront:\n${out}${err}")
  endif()
endforeach()

# ---- a non-positive metrics cadence is a user error, not an invariant --------
execute_process(
  COMMAND ${CLI} run --racks 8 --servers-per-rack 2 --flows 20
          --metrics-out ${OUT_DIR}/zero_cadence.jsonl --metrics-every-us 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--metrics-every-us 0 exited ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "--metrics-every-us must be positive")
  message(FATAL_ERROR "zero-cadence error message missing:\n${err}")
endif()

# ---- the flame output directory is checked before the run -------------------
execute_process(
  COMMAND ${CLI} run --racks 8 --servers-per-rack 2 --flows 20
          --profile-flame ${OUT_DIR}/missing/f.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--profile-flame into a missing directory exited ${rc}, expected 2:\n"
    "${out}${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR
    "--profile-flame into a missing directory ran the simulation:\n${out}")
endif()

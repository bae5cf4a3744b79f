# CTest driver for the `sirius.bench.v1` artifact contract. Invoked as:
#
#   cmake -DPERF_BENCH=<perf_bench exe> -DOUT_DIR=<scratch dir>
#         -P validate_bench_json.cmake
#
# Runs `perf_bench --quick --flame` once, then JSON-validates both
# artifacts with CMake's string(JSON) parser:
#   * the document is schema sirius.bench.v1 with a provenance block
#     (git sha, compiler, build type) and a positive calibration figure,
#   * every config entry carries the pinned metric set (wall_ns_per_slot,
#     cells_per_sec, RSS-over-baseline),
#   * the telemetry-on entry asserts the bit-identical determinism
#     contract,
#   * the flame export is a rooted tree whose root total covers its
#     children.
file(MAKE_DIRECTORY ${OUT_DIR})
set(BENCH_JSON ${OUT_DIR}/bench.json)
set(FLAME_JSON ${OUT_DIR}/flame.json)

execute_process(
  COMMAND ${PERF_BENCH} --quick --out ${BENCH_JSON} --flame ${FLAME_JSON}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_bench failed (exit ${rc}):\n${out}${err}")
endif()

# ---- bench document ---------------------------------------------------------
file(READ ${BENCH_JSON} doc)
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "sirius.bench.v1")
  message(FATAL_ERROR "schema is '${schema}', expected sirius.bench.v1")
endif()
string(JSON quick GET "${doc}" quick)
if(NOT quick STREQUAL "ON")
  message(FATAL_ERROR "quick flag is '${quick}', expected true")
endif()
string(JSON cal GET "${doc}" calibration_ns)
if(cal LESS_EQUAL 0)
  message(FATAL_ERROR "calibration_ns = ${cal}, expected > 0")
endif()
foreach(key git_sha build_type compiler)
  string(JSON v GET "${doc}" provenance ${key})
  if(v STREQUAL "")
    message(FATAL_ERROR "provenance.${key} is empty")
  endif()
endforeach()
string(JSON tele GET "${doc}" provenance sirius_telemetry)

string(JSON n LENGTH "${doc}" configs)
if(n LESS 5)
  message(FATAL_ERROR "quick suite emitted ${n} configs, expected >= 5")
endif()
math(EXPR last "${n} - 1")
set(saw_on FALSE)
foreach(i RANGE ${last})
  string(JSON name GET "${doc}" configs ${i} name)
  foreach(key slots_simulated cells_delivered wall_ns wall_ns_per_slot
              cells_per_sec)
    string(JSON v GET "${doc}" configs ${i} ${key})
    if(v LESS_EQUAL 0)
      message(FATAL_ERROR "config ${name}: ${key} = ${v}, expected > 0")
    endif()
  endforeach()
  foreach(key baseline_rss_kb peak_rss_delta_kb)
    string(JSON v GET "${doc}" configs ${i} ${key})
    if(v LESS 0)
      message(FATAL_ERROR "config ${name}: ${key} = ${v}, expected >= 0")
    endif()
  endforeach()
  if(name MATCHES "telemetry_on")
    set(saw_on TRUE)
    string(JSON ident GET "${doc}" configs ${i} bit_identical)
    if(NOT ident STREQUAL "ON")
      message(FATAL_ERROR
        "config ${name}: bit_identical = ${ident} — the instrumented run "
        "diverged from the bare run")
    endif()
  endif()
endforeach()
if(NOT saw_on)
  message(FATAL_ERROR "no telemetry_on config in the quick suite")
endif()

# ---- flame export -----------------------------------------------------------
# Only meaningful when the profiling scopes are compiled in; a telemetry-off
# build legitimately produces an empty tree.
if(NOT tele STREQUAL "ON")
  message(STATUS "telemetry compiled out; skipping flame validation")
  return()
endif()
file(READ ${FLAME_JSON} flame)
string(JSON root_name GET "${flame}" name)
if(NOT root_name STREQUAL "root")
  message(FATAL_ERROR "flame root is '${root_name}', expected 'root'")
endif()
string(JSON root_total GET "${flame}" total_ns)
if(root_total LESS_EQUAL 0)
  message(FATAL_ERROR "flame root total_ns = ${root_total}, expected > 0")
endif()
string(JSON n_children LENGTH "${flame}" children)
if(n_children LESS 1)
  message(FATAL_ERROR "flame root has no children — no scope ever ran")
endif()
string(JSON child_total GET "${flame}" children 0 total_ns)
if(child_total GREATER root_total)
  message(FATAL_ERROR
    "flame child total ${child_total} exceeds root total ${root_total}")
endif()

# Pins the machine-readable contract of `sirius_lint --json`:
#
#   * `--list-rules` advertises exactly the rule set below, so a dropped,
#     added or renamed rule fails by name;
#   * the report object carries files_scanned, violation_count,
#     violations, and rule_counts;
#   * rule_counts is zero-filled over every rule `--list-rules`
#     advertises, so consumers can diff counts across runs without key
#     churn when a rule goes quiet;
#   * a violating run bumps exactly the tripped rule's count and the
#     process exits 1; a clean run exits 0; usage errors exit 2.
#
# Usage: cmake -DLINT=<sirius_lint> -DFIXTURES_DIR=<dir> -DOUT_DIR=<dir>
#        -P check_json_schema.cmake

cmake_policy(SET CMP0057 NEW)  # IN_LIST in script mode

if(NOT DEFINED LINT OR NOT DEFINED FIXTURES_DIR OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
    "check_json_schema.cmake needs -DLINT= -DFIXTURES_DIR= -DOUT_DIR=")
endif()
file(MAKE_DIRECTORY ${OUT_DIR})

# ---- the advertised rule set ------------------------------------------------

execute_process(COMMAND ${LINT} --list-rules
  RESULT_VARIABLE rc OUTPUT_VARIABLE rules_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-rules failed (rc=${rc}): ${err}")
endif()
string(REPLACE "\n" ";" rule_lines "${rules_out}")
set(rule_ids "")
foreach(line IN LISTS rule_lines)
  if(line MATCHES "^([a-z0-9-]+):")
    list(APPEND rule_ids ${CMAKE_MATCH_1})
  endif()
endforeach()
list(LENGTH rule_ids n_rules)
set(expected_ids
  # line rules
  no-rand no-wallclock no-stdio no-using-namespace unit-escape
  raw-unit-param pragma-once
  # cross-file rules
  no-mutable-global-state no-unordered-sim-state no-pointer-key-order
  allowlist-sync layer-order include-cycle duplicate-include
  dead-public-symbol)
set(missing ${expected_ids})
list(REMOVE_ITEM missing ${rule_ids})
set(unexpected ${rule_ids})
list(REMOVE_ITEM unexpected ${expected_ids})
if(missing OR unexpected)
  message(FATAL_ERROR "--list-rules drifted from the pinned rule set: "
    "missing [${missing}], unexpected [${unexpected}]")
endif()
list(LENGTH expected_ids n_expected)
if(NOT n_rules EQUAL n_expected)
  message(FATAL_ERROR "--list-rules printed ${n_rules} rules, expected "
    "${n_expected} distinct ids (a rule is listed twice)")
endif()

# ---- clean run: exit 0, rule_counts zero-filled over every rule -------------

set(json ${OUT_DIR}/clean.json)
execute_process(
  COMMAND ${LINT} --treat-as-src --json ${json} ${FIXTURES_DIR}/clean.cpp.in
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean fixture: expected exit 0, got ${rc}")
endif()
file(READ ${json} report)
foreach(key IN ITEMS files_scanned violation_count violations rule_counts)
  string(JSON dummy ERROR_VARIABLE jerr GET "${report}" ${key})
  if(jerr)
    message(FATAL_ERROR "report is missing top-level key `${key}`: ${jerr}")
  endif()
endforeach()
string(JSON total GET "${report}" violation_count)
if(NOT total EQUAL 0)
  message(FATAL_ERROR "clean fixture: violation_count=${total}, expected 0")
endif()
foreach(id IN LISTS rule_ids)
  string(JSON count ERROR_VARIABLE jerr GET "${report}" rule_counts ${id})
  if(jerr)
    message(FATAL_ERROR "rule_counts is missing advertised rule `${id}`")
  endif()
  if(NOT count EQUAL 0)
    message(FATAL_ERROR "clean fixture: rule_counts.${id}=${count}")
  endif()
endforeach()

# ---- violating run: exit 1, exactly the tripped rule bumped -----------------

set(json ${OUT_DIR}/violating.json)
execute_process(
  COMMAND ${LINT} --classify-as src/sim/layer_order.cpp --json ${json}
          ${FIXTURES_DIR}/layer_order.cpp.in
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "violating fixture: expected exit 1, got ${rc}")
endif()
file(READ ${json} report)
string(JSON count GET "${report}" rule_counts layer-order)
if(NOT count EQUAL 1)
  message(FATAL_ERROR
    "violating fixture: rule_counts.layer-order=${count}, expected 1")
endif()
string(JSON total GET "${report}" violation_count)
if(NOT total EQUAL 1)
  message(FATAL_ERROR
    "violating fixture: violation_count=${total}, expected 1")
endif()
foreach(id IN LISTS rule_ids)
  if(id STREQUAL "layer-order")
    continue()
  endif()
  string(JSON count GET "${report}" rule_counts ${id})
  if(NOT count EQUAL 0)
    message(FATAL_ERROR
      "violating fixture: unexpected rule_counts.${id}=${count}")
  endif()
endforeach()

# ---- usage errors: exit 2 ---------------------------------------------------

execute_process(COMMAND ${LINT} --no-such-flag
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown flag: expected exit 2, got ${rc}")
endif()
execute_process(COMMAND ${LINT} --json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--json without a path: expected exit 2, got ${rc}")
endif()

message(STATUS
  "lint.json_schema: ${n_rules} rules, zero-filled counts, exits 0/1/2 OK")

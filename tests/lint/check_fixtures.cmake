# Meta-gate over tests/lint_fixtures/: every violating fixture must still
# trip at least one rule, so fixtures cannot rot silently as the linter
# evolves (a rule rename or regex tweak that stops matching its own seed
# fails here even if someone forgets the per-fixture test). Each fixture
# is linted classified under src/sim/, which every src-scoped rule covers,
# and must produce violations (exit 1).
#
# Exempt by design: *clean* twins and suppressed.cpp.in (zero rules is
# their point), and xfile_core.hpp.in, whose violation only materialises
# next to xfile_state.hpp.in (covered by lint.fixture.xfile_pair).
#
# Also pins the exit-code contract: 0 clean / 1 violations / 2 usage or
# I/O error. The per-fixture harness asserts 0 and 1; 2 is asserted here.
#
# Usage: cmake -DLINT=<sirius_lint> -DFIXTURES_DIR=<dir> -P check_fixtures.cmake

if(NOT DEFINED LINT OR NOT DEFINED FIXTURES_DIR)
  message(FATAL_ERROR "check_fixtures.cmake needs -DLINT= and -DFIXTURES_DIR=")
endif()

execute_process(COMMAND ${LINT} --definitely-not-a-flag
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown flag: expected exit 2, got ${rc}")
endif()
execute_process(COMMAND ${LINT} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "no inputs: expected exit 2, got ${rc}")
endif()

file(GLOB fixtures RELATIVE ${FIXTURES_DIR} ${FIXTURES_DIR}/*.in)
list(LENGTH fixtures total)
if(total EQUAL 0)
  message(FATAL_ERROR "no fixtures found under ${FIXTURES_DIR}")
endif()

set(rotted "")
set(checked 0)
foreach(f IN LISTS fixtures)
  if(f MATCHES "clean" OR f MATCHES "^suppressed" OR
     f STREQUAL "xfile_core.hpp.in")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  # Strip the .in staging suffix so headers classify as headers.
  string(REGEX REPLACE "\\.in$" "" base ${f})
  execute_process(
    COMMAND ${LINT} --quiet --classify-as src/sim/${base}
            ${FIXTURES_DIR}/${f}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    list(APPEND rotted ${f})
  elseif(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "lint failed (rc=${rc}) on ${f} classified as src/sim/${base}")
  endif()
endforeach()

if(rotted)
  message(FATAL_ERROR
    "fixtures trigger zero rules classified under src/sim/: ${rotted}")
endif()
message(STATUS
  "lint.fixtures: ${checked}/${total} seed fixtures still trip a rule")

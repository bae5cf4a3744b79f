# Correctness-tooling knobs: sanitizers, warnings-as-errors, clang-tidy and
# the invariant auditing mode. Included from the top-level CMakeLists; the
# presets in CMakePresets.json are thin wrappers over these options.

# SIRIUS_SANITIZE is a semicolon list of sanitizers, e.g. "address;undefined"
# or "thread". Applied to every target (compile + link).
set(SIRIUS_SANITIZE "" CACHE STRING
    "Semicolon list of sanitizers to enable (address;undefined | thread)")

option(SIRIUS_WERROR "Treat compiler warnings as errors" OFF)
option(SIRIUS_LINT "Run clang-tidy over src/ (needs clang-tidy in PATH)" OFF)
option(SIRIUS_AUDIT
       "Compile SIRIUS_INVARIANT as runtime-checked audits (plain assert() \
when OFF)" ON)
option(SIRIUS_TELEMETRY
       "Compile the telemetry macros (SIRIUS_CELL_EVENT, \
SIRIUS_PROFILE_SCOPE) as live sinks; OFF compiles them away entirely" ON)

if(SIRIUS_AUDIT)
  add_compile_definitions(SIRIUS_AUDIT)
endif()

if(SIRIUS_TELEMETRY)
  add_compile_definitions(SIRIUS_TELEMETRY)
endif()

if(SIRIUS_WERROR)
  add_compile_options(-Werror)
endif()

if(SIRIUS_SANITIZE)
  foreach(san IN LISTS SIRIUS_SANITIZE)
    add_compile_options(-fsanitize=${san})
    add_link_options(-fsanitize=${san})
  endforeach()
  # Keep stacks readable and make UB fatal instead of printing-and-carrying-
  # on, so ctest fails on the first report.
  add_compile_options(-fno-omit-frame-pointer)
  if("undefined" IN_LIST SIRIUS_SANITIZE)
    add_compile_options(-fno-sanitize-recover=undefined)
  endif()
endif()

# Strict warning set for the unit-defining zone (src/common, src/check):
# these TUs define the overflow-checked value types everything else trusts,
# so silent narrowing or shadowing there corrupts every figure downstream.
set(SIRIUS_STRICT_WARNINGS -Wshadow -Wextra-semi -Wconversion)

# Proves every header under src/ is self-contained: each one is compiled
# standalone (a generated one-line TU per header), so a header that leans on
# its includer's includes fails the regular build, not some future refactor.
function(sirius_add_header_selfcontainment)
  file(GLOB_RECURSE _headers CONFIGURE_DEPENDS "${CMAKE_SOURCE_DIR}/src/*.hpp")
  set(_gen_dir "${CMAKE_BINARY_DIR}/header_selfcontainment")
  set(_stubs "")
  foreach(_hdr IN LISTS _headers)
    file(RELATIVE_PATH _rel "${CMAKE_SOURCE_DIR}/src" "${_hdr}")
    string(REPLACE "/" "__" _name "${_rel}")
    set(_stub "${_gen_dir}/${_name}.cpp")
    file(CONFIGURE OUTPUT "${_stub}"
         CONTENT "#include \"${_rel}\"\n")
    list(APPEND _stubs "${_stub}")
  endforeach()
  add_library(sirius_header_selfcontainment OBJECT ${_stubs})
  target_include_directories(sirius_header_selfcontainment
                             PRIVATE "${CMAKE_SOURCE_DIR}/src")
endfunction()

if(SIRIUS_LINT)
  find_program(SIRIUS_CLANG_TIDY_EXE NAMES clang-tidy)
  if(SIRIUS_CLANG_TIDY_EXE)
    # The caller scopes this to src/ by setting CMAKE_CXX_CLANG_TIDY around
    # add_subdirectory(src); tests/bench/examples stay un-tidied.
    set(SIRIUS_CLANG_TIDY_COMMAND "${SIRIUS_CLANG_TIDY_EXE}"
        "--warnings-as-errors=*")
  else()
    message(WARNING
      "SIRIUS_LINT=ON but clang-tidy was not found in PATH; the lint gate "
      "is skipped for this build.")
    set(SIRIUS_CLANG_TIDY_COMMAND "")
  endif()
endif()

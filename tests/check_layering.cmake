# Layering rule: production code never depends on the test-only reference
# library (tests/reference, target nfvm_test_reference). Fails when a source
# file under src/ or tools/ includes a "reference/..." header, or when a
# CMake file there names nfvm_test_reference.
#
# Usage: cmake -DNFVM_SOURCE_DIR=<repository root> -P tests/check_layering.cmake
if(NOT NFVM_SOURCE_DIR)
  message(FATAL_ERROR "check_layering: pass -DNFVM_SOURCE_DIR=<repository root>")
endif()

set(_violations "")
set(_scanned 0)
foreach(_dir src tools)
  file(GLOB_RECURSE _sources
    "${NFVM_SOURCE_DIR}/${_dir}/*.h"
    "${NFVM_SOURCE_DIR}/${_dir}/*.hpp"
    "${NFVM_SOURCE_DIR}/${_dir}/*.cpp"
    "${NFVM_SOURCE_DIR}/${_dir}/*.cc")
  foreach(_file IN LISTS _sources)
    math(EXPR _scanned "${_scanned} + 1")
    file(STRINGS "${_file}" _hits
      REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]reference/")
    foreach(_hit IN LISTS _hits)
      list(APPEND _violations "${_file}: ${_hit}")
    endforeach()
  endforeach()

  file(GLOB_RECURSE _cmake_files
    "${NFVM_SOURCE_DIR}/${_dir}/CMakeLists.txt"
    "${NFVM_SOURCE_DIR}/${_dir}/*.cmake")
  foreach(_file IN LISTS _cmake_files)
    file(STRINGS "${_file}" _hits REGEX "nfvm_test_reference")
    foreach(_hit IN LISTS _hits)
      list(APPEND _violations "${_file}: ${_hit}")
    endforeach()
  endforeach()
endforeach()

# A wrong root would scan nothing and pass vacuously.
if(_scanned EQUAL 0)
  message(FATAL_ERROR "check_layering: no sources under ${NFVM_SOURCE_DIR}/src")
endif()

if(_violations)
  list(JOIN _violations "\n  " _report)
  message(FATAL_ERROR
    "check_layering: src/ and tools/ must not use the test-only reference "
    "library (tests/reference):\n  ${_report}")
endif()
message(STATUS "check_layering: ${_scanned} sources under src/ and tools/ are clean")

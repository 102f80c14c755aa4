# Figure-golden check for one fig*/table*/ablation_* binary.
#
#   cmake -DBINARY=<path> -DNAME=<name> -DDIGESTS=<digest file> -P figure_golden.cmake
#
# Runs the binary at --jobs 1 and at --jobs 4, drops the BenchSession timing
# line ("[<name>: ... s wall, jobs=...]"), and compares the SHA-256 of the
# remaining stdout with the binary's line in the digest file. Both runs must
# match: the digest pins the figure bytes and the jobs-invariance at once.
# On a mismatch the actual digest is printed; a digest may be replaced only
# together with a CHANGES.md line that says why the figure changed.

foreach(var BINARY NAME DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${DIGESTS}" digest_lines REGEX "^${NAME} ")
list(LENGTH digest_lines found)
if(NOT found EQUAL 1)
  message(FATAL_ERROR "${NAME}: expected exactly one line in ${DIGESTS}, found ${found}")
endif()
string(REGEX REPLACE "^${NAME} +([0-9a-f]+).*$" "\\1" expected "${digest_lines}")

foreach(jobs 1 4)
  execute_process(COMMAND "${BINARY}" --jobs ${jobs}
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NAME} --jobs ${jobs} exited with ${status}")
  endif()
  string(REGEX REPLACE "\\[${NAME}: [0-9.]+ s wall, jobs=[^\n]*\n" "" stripped "${out}")
  string(SHA256 actual "${stripped}")
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${NAME} --jobs ${jobs}: stdout digest ${actual} != golden ${expected}")
  endif()
endforeach()
message(STATUS "${NAME}: ${expected} at --jobs 1 and --jobs 4")

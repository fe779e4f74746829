# Figure-CSV pins (ctest label `paper`): reruns CSV-writing paper benches
# in a fresh directory and compares every figure CSV they write with the
# committed copy at the repository root, byte for byte. A change that
# moves a reproduced figure fails here instead of drifting silently.
#
#   cmake -DBENCH_DIR=<dir of bench binaries> -DBENCHES=a,b,...
#         -DCSVS=x.csv,y.csv,... -DREPO=<repo root> -DWORK=<scratch dir>
#         -P paper_csvs.cmake
#
# Lists are comma-separated. Regenerate a committed CSV by running its
# bench from the repository root.
cmake_minimum_required(VERSION 3.16)
string(REPLACE "," ";" benches "${BENCHES}")
string(REPLACE "," ";" csvs "${CSVS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

foreach(b IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${b}"
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${b} exited with ${rc}: ${err}")
  endif()
endforeach()

set(bad "")
foreach(csv IN LISTS csvs)
  if(NOT EXISTS "${WORK}/${csv}")
    list(APPEND bad "${csv} (not written)")
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK}/${csv}" "${REPO}/${csv}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND bad "${csv}")
  endif()
endforeach()

# A figure CSV the benches write but no test pins is a gap, not a pass.
file(GLOB written RELATIVE "${WORK}" "${WORK}/fig*.csv")
foreach(csv IN LISTS written)
  if(NOT csv IN_LIST csvs)
    list(APPEND bad "${csv} (written but not pinned)")
  endif()
endforeach()

if(bad)
  message(FATAL_ERROR "figure CSVs differ from the committed copies: ${bad}")
endif()
list(LENGTH csvs n)
message(STATUS "${n} figure CSVs match the committed copies")

# Writes the bench provenance header OUTPUT: `#define SURFOS_GIT_SHA "<sha>"`
# for the commit SOURCE_DIR's HEAD names, with "-dirty" appended when the
# tracked files differ from it, and "unknown" outside a git checkout. The
# file is rewritten only when the stamp changed, so the benches recompile
# only after a commit or a clean/dirty flip.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P git_stamp.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  RESULT_VARIABLE rev_failed
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
)
if(rev_failed OR NOT sha)
  set(sha "unknown")
else()
  execute_process(
    COMMAND git diff --quiet HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    RESULT_VARIABLE dirty
    ERROR_QUIET
  )
  if(dirty)
    string(APPEND sha "-dirty")
  endif()
endif()

set(stamp "#define SURFOS_GIT_SHA \"${sha}\"\n")
set(previous "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} previous)
endif()
if(NOT previous STREQUAL stamp)
  file(WRITE ${OUTPUT} "${stamp}")
endif()

# CLI round trip through the one delta intake:
#
#  1. `serve --journal` applies a `delta` line naming an edge label the
#     graph has never seen (the session mints it), then a plain one;
#     `maintain --journal` replays both frames from the mine snapshot's
#     evidence (it prints "restored maintainer").
#  2. A delete naming a label nobody has seen (it names no edge, so it
#     mints nothing), then an insert minting another label: a second
#     `serve` recovers that journal and `maintain --journal` replays it.
#  3. `maintain` of that snapshot against a foreign graph (a pokec graph
#     that has none of its centers) is a usage error, exit 2, and leaves
#     the snapshot it would refresh in place byte-for-byte unchanged.
#
#   cmake -DTOOL=path/to/gpar_tool -DWORK=scratch/dir -P serve_maintain_roundtrip.cmake
file(MAKE_DIRECTORY ${WORK})
file(REMOVE ${WORK}/w.wal ${WORK}/minted.wal)

function(run_tool want_rc)
  execute_process(COMMAND ${TOOL} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "gpar_tool ${ARGN} exited ${rc}, want ${want_rc}:\n"
                        "${out}\n${err}")
  endif()
  set(tool_out "${out}" PARENT_SCOPE)
endfunction()

run_tool(0 generate --type synthetic --scale 1 --out ${WORK}/g.txt)
run_tool(0 snapshot --graph ${WORK}/g.txt --out ${WORK}/g.snap)
run_tool(0 mine --graph ${WORK}/g.txt --x l0 --edge e0 --y l1 --k 3 --d 1
         --sigma 2 --max-edges 2 --workers 2
         --snapshot-out ${WORK}/rules.snap)

file(WRITE ${WORK}/serve.in "delta 5 brand_new 12\ndelta 5 e0 13\nquit\n")
execute_process(COMMAND ${TOOL} serve --graph-snapshot ${WORK}/g.snap
                        --rules-snapshot ${WORK}/rules.snap
                        --journal ${WORK}/w.wal --strict 1
                INPUT_FILE ${WORK}/serve.in
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve exited ${rc}:\n${out}\n${err}")
endif()

run_tool(0 maintain --graph-snapshot ${WORK}/g.snap
         --rules-snapshot ${WORK}/rules.snap --journal ${WORK}/w.wal
         --out ${WORK}/rules2.snap --workers 2)
message("${tool_out}")
if(NOT tool_out MATCHES "restored maintainer")
  message(FATAL_ERROR "maintain did not restore from the mine snapshot")
endif()
if(NOT tool_out MATCHES "maintained to sequence 2")
  message(FATAL_ERROR "maintain did not replay both journal frames")
endif()

file(WRITE ${WORK}/minted.in
     "delta - 5 brand_x 12\ndelta 5 brand_y 12\nquit\n")
file(WRITE ${WORK}/quit.in "quit\n")
# The second run recovers the journal the first one wrote.
foreach(input minted.in quit.in)
  execute_process(COMMAND ${TOOL} serve --graph-snapshot ${WORK}/g.snap
                          --rules-snapshot ${WORK}/rules.snap
                          --journal ${WORK}/minted.wal --strict 1
                  INPUT_FILE ${WORK}/${input}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve < ${input} exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()
run_tool(0 maintain --graph-snapshot ${WORK}/g.snap
         --rules-snapshot ${WORK}/rules.snap --journal ${WORK}/minted.wal
         --out ${WORK}/rules3.snap --workers 2)

run_tool(0 generate --type pokec --scale 1 --out ${WORK}/pg.txt)
run_tool(0 snapshot --graph ${WORK}/pg.txt --out ${WORK}/pg.snap)
file(SHA256 ${WORK}/rules.snap before_sha)
run_tool(2 maintain --graph-snapshot ${WORK}/pg.snap
         --rules-snapshot ${WORK}/rules.snap --workers 2)
file(SHA256 ${WORK}/rules.snap after_sha)
if(NOT before_sha STREQUAL after_sha)
  message(FATAL_ERROR "maintain against a foreign graph rewrote "
                      "rules.snap: ${before_sha} -> ${after_sha}")
endif()

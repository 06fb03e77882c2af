# vifc_add_layer(<name> SOURCES <srcs...> [DEPS <layers...>])
#
# Declares the static library for one src/<name> layer. Every layer exports
# ${PROJECT_SOURCE_DIR}/src as a PUBLIC include directory so headers are
# included as "<layer>/<Header>.h"; DEPS are PUBLIC so the link graph
# mirrors the include graph (see DESIGN.md, "Build-system DAG"). The
# layer's sources and DEPS are also recorded for vifc_layer_sources.
function(vifc_add_layer name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  add_library(vifc_${name} STATIC ${ARG_SOURCES})
  target_include_directories(vifc_${name} PUBLIC ${PROJECT_SOURCE_DIR}/src)
  target_link_libraries(vifc_${name} PRIVATE vifc_warnings)
  foreach(dep IN LISTS ARG_DEPS)
    target_link_libraries(vifc_${name} PUBLIC vifc_${dep})
  endforeach()
  add_library(vifc::${name} ALIAS vifc_${name})
  list(TRANSFORM ARG_SOURCES PREPEND ${CMAKE_CURRENT_SOURCE_DIR}/)
  set_property(GLOBAL PROPERTY VIFC_LAYER_SOURCES_${name} ${ARG_SOURCES})
  set_property(GLOBAL PROPERTY VIFC_LAYER_DEPS_${name} ${ARG_DEPS})
endfunction()

# vifc_layer_sources(<out> <layers...>)
#
# Sets <out> to the sources of <layers> and of every layer they depend on,
# transitively: what a binary compiles when it builds those layers from
# source rather than linking their libraries (the sanitizer targets in
# tests/CMakeLists.txt, which must instrument every instruction).
function(vifc_layer_sources out)
  set(todo ${ARGN})
  set(seen "")
  set(sources "")
  while(todo)
    list(POP_FRONT todo layer)
    if(NOT layer IN_LIST seen)
      list(APPEND seen ${layer})
      get_property(srcs GLOBAL PROPERTY VIFC_LAYER_SOURCES_${layer})
      get_property(deps GLOBAL PROPERTY VIFC_LAYER_DEPS_${layer})
      list(APPEND sources ${srcs})
      list(APPEND todo ${deps})
    endif()
  endwhile()
  set(${out} ${sources} PARENT_SCOPE)
endfunction()

#!/bin/sh
# Link-time census of the phonoc library: list the phonoc:: functions
# the library defines out of line that none of its programs (every
# examples/ and bench/ binary, plus the perfbench driver) links, and
# fail on each one that tests/census_keep.txt does not name. A library
# function that only tests call is dead weight; the census stops deleted
# mechanism from coming back as test-only code.
#
# The library is compiled unoptimized with one section per function.
# Each program links against every library object with section garbage
# collection, and a function is listed when every link dropped its
# section. Only T/t symbols count: inline functions and template copies
# are weak (W) and drop out. perfbench's sources are compiled, never
# written.
#
# Usage: tests/census.sh [WORK_DIR]
# About 2 minutes at 4 jobs. Without WORK_DIR the objects go to a
# temporary directory that is removed afterwards.
set -eu

R=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ge 1 ]; then
  O=$1
else
  O=$(mktemp -d)
  trap 'rm -rf "$O"' EXIT
fi
mkdir -p "$O/lib" "$O/prog" "$O/pb" "$O/gc"

CXX="g++ -std=c++20 -O0 -ffunction-sections -fdata-sections -I$R/src"
for f in $(cd "$R/src" && find . -name '*.cpp'); do
  echo "$R/src/$f $O/lib/$(echo "${f#./}" | tr / _).o"; done |
  xargs -P4 -n2 sh -c "$CXX -c \$0 -o \$1"
for f in "$R"/examples/*.cpp "$R"/bench/*.cpp; do
  echo "$f $O/prog/$(basename "${f%.cpp}").o"; done |
  xargs -P4 -n2 sh -c "$CXX -c \$0 -o \$1"
for f in main common service_load fleet mapping_probe; do  # perfbench
  $CXX -DPERFBENCH_BUILD_TYPE='"Debug"' -DPERFBENCH_COMPILER='"GNU"' \
    -DPERFBENCH_PHONOCD='"phonocd"' -DPERFBENCH_WORKERD='"phonoc_workerd"' \
    -c "$R/perfbench/src/$f.cpp" -o "$O/pb/$f.o"
done

link() {
  n=$1; shift; x=
  [ "$n" = bench_eval_micro ] && x=-lbenchmark
  g++ -o /dev/null "$@" "$O"/lib/*.o -Wl,--gc-sections \
    -Wl,--print-gc-sections -pthread $x 2> "$O/gc/$n.txt"
}
programs=1  # the perfbench driver
for o in "$O"/prog/*.o; do
  link "$(basename "${o%.o}")" "$o"
  programs=$((programs + 1))
done
link perfbench_driver "$O"/pb/*.o

nm "$O"/lib/*.o | awk '$2=="T"||$2=="t"{print $3}' | sort -u > "$O/defined"
cat "$O"/gc/*.txt |
  sed -n "s/.*removing unused section '\.text\.\([^']*\)'.*/\1/p" |
  sort | uniq -c | awk -v n="$programs" '$1==n{print $2}' |
  sort -u > "$O/dropped"
comm -12 "$O/defined" "$O/dropped" | c++filt | grep '^phonoc::' \
  > "$O/census" || true

cat "$O/census"
keep="$R/tests/census_keep.txt"
unexpected=$(grep -Fxv -f "$keep" "$O/census" || true)
if [ -n "$unexpected" ]; then
  echo "$unexpected" | while IFS= read -r symbol; do
    echo "census: no program links '$symbol', and" \
      "tests/census_keep.txt does not keep it" >&2
  done
  exit 1
fi
echo "census: $programs programs link none of the $(wc -l < "$O/census")" \
  "symbols above; tests/census_keep.txt keeps each of them"

#!/usr/bin/env bash
# Reachability ratchet: every litegpu:: function in src/ must be reached by
# a root binary, or be named in tools/reachability_allowlist.txt with a
# reason.
#
# The roots are the `litegpu` CLI, every bench/*.cc binary, every
# examples/*.cpp binary, and litebench (built from litebench/CMakeLists.txt,
# which is configured on its own). They are built unoptimized with
# -fno-inline (at -O2, a function that is only ever inlined has no symbol
# and would look dead) and -ffunction-sections, and linked with
# --gc-sections, so a function whose section no root keeps is one nothing
# reaches. The script compares the defined functions of the library archive
# against the union of the roots' symbols, dropping std:: instantiations,
# template instantiations, lambdas and [clone] copies.
#
# It prints every unreached function, and exits 1 when one is not
# allowlisted, or when an allowlist line matches no unreached function (it
# is now reached, or gone). So the allowlist can only shrink.
#
#   tools/check_reachability.sh [build-dir]
#
# The build dir (default: $TMPDIR/litegpu-reachability, outside the tree)
# is reused between runs.

set -euo pipefail
export LC_ALL=C  # one sort order for sort and comm
cd "$(dirname "$0")/.."
root="$(pwd)"

build="${1:-${TMPDIR:-/tmp}/litegpu-reachability}"
allowlist="$root/tools/reachability_allowlist.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then
  jobs=4
fi

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Every bench is a root, so Google Benchmark must be installed: without it
# the root CMakeLists.txt skips bench_micro_engine and the build below
# fails on the missing target.
cmake -S "$root" -B "$build/main" "${flags[@]}" > /dev/null
targets=(litegpu_cli)
for src in bench/*.cc examples/*.cpp; do
  targets+=("$(basename "${src%.*}")")
done
cmake --build "$build/main" --parallel "$jobs" --target "${targets[@]}" > /dev/null

cmake -S "$root/litebench" -B "$build/litebench" "${flags[@]}" > /dev/null
cmake --build "$build/litebench" --parallel "$jobs" --target litebench > /dev/null

# Demangled names of the text symbols in $@ that are non-template
# litegpu:: functions, "(anonymous namespace)" spelled {anonymous}. A name
# is a template instantiation when, with function-local scopes such as
# "f(int)::Local::" dropped, a "<" or a return type comes before its
# parameter list.
functions() {
  nm -C --defined-only "$@" 2>/dev/null | perl -ne '
    next unless s/^\S+ [TtWw] //;
    s/\(anonymous namespace\)/{anonymous}/g;
    next unless /^litegpu::/ && !/\{lambda|\[clone/;
    (my $head = $_) =~ s/(\((?:[^()]++|(?1))*\))(?=::)//g;
    $head =~ s/\(.*//s;
    $head =~ s/operator.*//;
    print unless $head =~ /[< ]/;' | sort -u
}

binaries=("$build/main/litegpu" "$build/litebench/litebench")
for name in "${targets[@]:1}"; do
  binaries+=("$build/main/$name")
done

functions "$build/main/liblitegpu.a" > "$build/defined.txt"
functions "${binaries[@]}" > "$build/reached.txt"
comm -23 "$build/defined.txt" "$build/reached.txt" > "$build/unreached.txt"

# An allowlist line is `<name> # <reason>`. <name> matches an unreached
# function whose qualified name (the text before its parameter list, without
# [abi:...] tags) equals it or lies inside it (`litegpu::HeapEventQueue`
# covers its members). A name with a parameter list must match the whole
# signature.
awk -v allowlist="$allowlist" '
  function qualified(sig,   q) {
    q = substr(sig, 1, index(sig "(", "(") - 1)
    gsub(/\[abi:[^]]*\]/, "", q)
    return q
  }
  BEGIN {
    while ((getline line < allowlist) > 0) {
      lineno++
      if (line ~ /^[[:space:]]*(#|$)/) continue
      split_at = index(line, " # ")
      if (split_at == 0 || substr(line, split_at + 3) !~ /[^[:space:]]/) {
        printf "check_reachability: allowlist line %d has no \" # reason\": %s\n", lineno, line
        bad = 1
        continue
      }
      name = substr(line, 1, split_at - 1)
      sub(/[[:space:]]+$/, "", name)
      entries[++n] = name
    }
  }
  {
    total++
    matched = 0
    q = qualified($0)
    for (i = 1; i <= n; i++) {
      e = entries[i]
      if ((index(e, "(") && $0 == e) || (!index(e, "(") && (q == e || index(q, e "::") == 1))) {
        used[i] = 1
        matched = 1
      }
    }
    printf "%s %s\n", (matched ? "allowlisted" : "UNREACHED  "), $0
    if (!matched) unlisted++
  }
  END {
    for (i = 1; i <= n; i++) {
      if (!used[i]) {
        printf "check_reachability: allowlist entry matches no unreached function (now reached or gone; delete the line): %s\n", entries[i]
        bad = 1
      }
    }
    printf "check_reachability: %d unreached, %d not allowlisted, %d allowlist entries\n", total, unlisted, n
    if (unlisted > 0 || bad) exit 1
  }' "$build/unreached.txt"

#!/usr/bin/env bash
# Print the size figures each CHANGES.md row records:
#
#   * net Rust LoC: every line of every .rs file under crates/, src/,
#     tests/ and examples/ (tests and comments included);
#   * public-item declarations: lines starting `pub fn|struct|enum|trait|
#     const|static|type|mod|use` in crates/*/src and src (pub(crate) and
#     other restricted visibilities do not count);
#   * panic sites per runtime crate: non-comment lines before a file's
#     first `cfg` attribute that names `test` (`#[cfg(test)]`,
#     `#[cfg(all(test, …))]`, `#![cfg(test)]`) that call `unwrap()` or
#     `expect(`, or use `assert!`, `assert_eq!`, `assert_ne!`, `panic!` or
#     `unreachable!` (`debug_assert*!` and compile-time
#     `const _: () = assert!(…)` checks excluded).
#
# Usage: scripts/size.sh   (from anywhere; reads the working tree)
set -euo pipefail
cd "$(dirname "$0")/.."

loc=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
pub_items=$(find crates/*/src src -name '*.rs' -print0 |
    xargs -0 grep -hE '^\s*pub (fn|struct|enum|trait|const|static|type|mod|use)\b' | wc -l)
echo "net Rust LoC: $loc"
echo "public-item declarations: $pub_items"

panic_re='unwrap\(\)|expect\(|(^|[^_[:alnum:]])(assert|assert_eq|assert_ne|panic|unreachable)!'
echo "panic sites (before the test module):"
for krate in core io simnet tfrc cc sack; do
    n=0
    while IFS= read -r -d '' f; do
        k=$(awk '/^[[:space:]]*#!?\[cfg\((.*[^_[:alnum:]])?test([^_[:alnum:]]|$)/ { exit } { print }' "$f" |
            grep -vE '^[[:space:]]*//|^[[:space:]]*const _: \(\) = assert!' |
            grep -cE "$panic_re" || true)
        n=$((n + k))
    done < <(find "crates/$krate/src" -name '*.rs' -print0)
    echo "  $krate $n"
done

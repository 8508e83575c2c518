#!/usr/bin/env bash
# bench_codec.sh — measures the trace codecs and rewrites BENCH_codec.json.
# The BenchmarkCodec* microbenchmarks run text and binary columnar
# (colbin) reads/writes over the same oracle trace, with b.SetBytes
# pinned to the TEXT size so MB/s is comparable across codecs. Gates:
#
#   1. colbin decode must be >= 5x faster than the text parse — the
#      reason ingest converts to binary at all.
#   2. the cached re-read (a trace-cache hit, which runs the same colbin
#      decode as gate 1) must be >= 10x faster than the text parse — the
#      reason the convert-on-first-read cache exists.
#
#   BENCHTIME=200x OUT=BENCH_codec.json scripts/bench_codec.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-200x}
OUT=${OUT:-BENCH_codec.json}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "codec bench: benchtime=$BENCHTIME" >&2
go test -run '^$' -bench 'BenchmarkCodec' -benchtime "$BENCHTIME" ./internal/trace/ \
    | tee "$tmp/bench.txt" >&2

ns() { awk -v n="$1" '$1 ~ "^"n"(-[0-9]+)?$" {print $3}' "$tmp/bench.txt"; }
allocs() { awk -v n="$1" '$1 ~ "^"n"(-[0-9]+)?$" {print $(NF-1)}' "$tmp/bench.txt"; }

text_read=$(ns BenchmarkCodecTextRead)
text_write=$(ns BenchmarkCodecTextWrite)
col_read=$(ns BenchmarkCodecColbinRead)
col_write=$(ns BenchmarkCodecColbinWrite)
col_read_allocs=$(allocs BenchmarkCodecColbinRead)

read_speedup=$(awk -v t="$text_read" -v c="$col_read" 'BEGIN {printf "%.2f", t / c}')

{
    echo '{'
    echo '  "suite": "trace codec: text vs binary columnar (colbin)",'
    echo "  \"date\": \"$(date -u +%F)\","
    echo "  \"go\": \"$(go version | awk '{print $3}')\","
    echo "  \"command\": \"scripts/bench_codec.sh (go test -bench BenchmarkCodec -benchtime $BENCHTIME ./internal/trace/)\","
    echo '  "workload": "One seeded oracle trace (32 ranks x 40 iterations x 2 phases, ~2560 bursts with full counter sets), encoded once per codec; every benchmark decodes or encodes the whole trace per iteration. SetBytes is the text encoding size for all entries, so MB/s compares codecs over the same logical payload.",'
    echo '  "nsPerOp": {'
    echo "    \"textRead\": $text_read,"
    echo "    \"textWrite\": $text_write,"
    echo "    \"colbinRead\": $col_read,"
    echo "    \"colbinWrite\": $col_write"
    echo '  },'
    echo '  "colbinReadAllocsPerOp": '"$col_read_allocs"','
    echo '  "decodeSpeedup": {'
    echo "    \"colbinVsText\": $read_speedup,"
    echo '    "gate": "colbin decode must be >= 5x the text parse"'
    echo '  },'
    echo '  "cachedRereadSpeedup": {'
    echo "    \"colbinVsText\": $read_speedup,"
    echo '    "gate": "cache-hit re-read (the colbinRead decode) must be >= 10x the text parse"'
    echo '  }'
    echo '}'
} >"$OUT"

awk -v r="$read_speedup" 'BEGIN { if (r < 5.0) { print "bench_codec: FAIL: colbin/text decode speedup " r " < 5x"; exit 1 } }' >&2
awk -v r="$read_speedup" 'BEGIN { if (r < 10.0) { print "bench_codec: FAIL: cached re-read speedup " r " < 10x"; exit 1 } }' >&2
echo "wrote $OUT (colbin decode and cached re-read ${read_speedup}x vs text parse)" >&2

#!/bin/sh
# One-shot gate: full build, full test suite, then a live smoke test of
# the ricd daemon — start it, issue one RCDP over the socket, assert a
# well-formed JSON verdict, shut it down.
set -eu

cd "$(dirname "$0")/.."

# median of three integers, for the throughput guards: one run on a
# shared host swings by a third, the middle of three far less
median3() { printf '%s\n' "$1" "$2" "$3" | sort -n | sed -n 2p; }

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== forced worker matrix"
# the search and profile suites must hold on any core count, not only
# on this host's: re-run them with the parallel search's worker clamp
# forced to 1, 2 and 4 domains
for W in 1 2 4; do
  for T in test_search test_obs; do
    RIC_SEARCH_FORCE_WORKERS=$W "_build/default/test/$T.exe" >/dev/null \
      || { echo "FAIL: $T with RIC_SEARCH_FORCE_WORKERS=$W" >&2; exit 1; }
  done
  echo "workers $W: test_search, test_obs pass"
done

echo "== ricd smoke test"
SOCKET="${TMPDIR:-/tmp}/ricd-check-$$.sock"
RIC="_build/default/bin/ric.exe"

cleanup() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET"
}
trap cleanup EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 &
SERVER_PID=$!

# wait for the socket to accept connections
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

OPEN=$("$RIC" request open scenarios/crm.ric -S "$SOCKET")
echo "open:    $OPEN"
case "$OPEN" in
  '{"ok":true,"session":"'*) ;;
  *) echo "FAIL: open did not return a session" >&2; exit 1 ;;
esac
SESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')

VERDICT=$("$RIC" request rcdp "$SESSION" Q0 -S "$SOCKET")
echo "rcdp:    $VERDICT"
case "$VERDICT" in
  '{"ok":true,'*'"cached":false'*'"verdict":'*) ;;
  *) echo "FAIL: rcdp response is not a well-formed verdict" >&2; exit 1 ;;
esac

# the second identical request must be served from the cache
WARM=$("$RIC" request rcdp "$SESSION" Q0 -S "$SOCKET")
echo "cached:  $WARM"
case "$WARM" in
  *'"cached":true'*) ;;
  *) echo "FAIL: second identical request was not a cache hit" >&2; exit 1 ;;
esac

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""

echo "== metrics smoke test"
MSOCKET="${TMPDIR:-/tmp}/ricd-check-$$-metrics.sock"

cleanup_metrics() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET" "$MSOCKET"
}
trap cleanup_metrics EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 --metrics "$MSOCKET" &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

# the Prometheus exposition is live and names the request counter
SCRAPE=$("$RIC" scrape "$MSOCKET")
case "$SCRAPE" in
  *'# TYPE ric_requests_total counter'*) ;;
  *) echo "FAIL: scrape does not expose ric_requests_total" >&2; exit 1 ;;
esac
PINGS_BEFORE=$(printf '%s\n' "$SCRAPE" | sed -n 's/^ric_requests_total{op="ping"} \([0-9]*\)$/\1/p')
PINGS_BEFORE="${PINGS_BEFORE:-0}"

# one more request must move the counter in the next scrape
"$RIC" request ping -S "$SOCKET" >/dev/null
PINGS_AFTER=$("$RIC" scrape "$MSOCKET" \
  | sed -n 's/^ric_requests_total{op="ping"} \([0-9]*\)$/\1/p')
echo "metrics: ping count ${PINGS_BEFORE} -> ${PINGS_AFTER:-?}"
if [ -z "${PINGS_AFTER:-}" ] || [ "$PINGS_AFTER" -le "$PINGS_BEFORE" ]; then
  echo "FAIL: ric_requests_total{op=\"ping\"} did not increment" >&2
  exit 1
fi

# ric top renders a live dashboard off the same exposition (two frames
# at a short interval; the output is ANSI-redrawn but must carry the
# throughput and latency rows)
TOP=$("$RIC" top "$MSOCKET" -n 2 -i 0.2)
case "$TOP" in
  *'requests'*'latency'*'steps/s'*) ;;
  *) echo "FAIL: ric top did not render the dashboard" >&2; exit 1 ;;
esac
echo "top:     dashboard rendered"

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$MSOCKET"

echo "== explain smoke test"
# profile attribution on the hostile instance under a 500 ms budget:
# the profile's attributed steps must cover >= 95% of the budget's
# step total (the tick sites are mirrored, so this should be 100%)
EXPLAIN=$("$RIC" explain scenarios/hard.ric --timeout-ms 500)
ESTEPS=$(printf '%s\n' "$EXPLAIN" | sed -n 's/^steps: \([0-9]*\).*/\1/p')
EATTR=$(printf '%s\n' "$EXPLAIN" | sed -n 's/^steps: [0-9]*  attributed: \([0-9]*\).*/\1/p')
echo "explain: steps $ESTEPS, attributed ${EATTR:-?}"
if [ -z "${ESTEPS:-}" ] || [ -z "${EATTR:-}" ] || [ "$ESTEPS" -eq 0 ]; then
  echo "FAIL: ric explain did not report a step attribution line" >&2
  exit 1
fi
if [ $((EATTR * 100)) -lt $((ESTEPS * 95)) ]; then
  echo "FAIL: explain attributed less than 95% of the budget's steps" >&2
  exit 1
fi

echo "== flight recorder smoke test"
FLIGHT="${TMPDIR:-/tmp}/ricd-check-$$.flight.jsonl"

cleanup_flight() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET" "$FLIGHT"
}
trap cleanup_flight EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 --flight "$FLIGHT" &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

# some traffic for the ring, then SIGUSR1 must dump it as JSONL
OPEN=$("$RIC" request open scenarios/crm.ric -S "$SOCKET")
FSESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')
"$RIC" request rcdp "$FSESSION" Q0 -S "$SOCKET" >/dev/null
kill -USR1 "$SERVER_PID"
i=0
until [ -s "$FLIGHT" ]; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: SIGUSR1 did not produce a flight dump at $FLIGHT" >&2
    exit 1
  fi
  sleep 0.1
done
# every line is a flight event: the writer emits a fixed key order, so
# a torn or interleaved line cannot match
BAD=$(grep -cv '^{"seq":[0-9]*,"t_us":[0-9]*,"kind":"' "$FLIGHT" || true)
if [ "${BAD:-1}" -ne 0 ]; then
  echo "FAIL: $FLIGHT holds $BAD malformed lines" >&2
  exit 1
fi
# the dump op rewrites the same file on demand and reports its size
DUMP=$("$RIC" request dump -S "$SOCKET")
echo "flight:  $DUMP"
case "$DUMP" in
  '{"ok":true,'*'"events":'*) ;;
  *) echo "FAIL: the dump op did not report an event count" >&2; exit 1 ;;
esac

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$FLIGHT"

echo "== robustness smoke test"
JOURNAL="${TMPDIR:-/tmp}/ricd-check-$$.journal"

cleanup2() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET" "$JOURNAL"
}
trap cleanup2 EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 --journal "$JOURNAL" &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

# a deliberately hostile RCDP instance (hours of search) with a 100 ms
# deadline must come back promptly with a timeout verdict
OPEN=$("$RIC" request open scenarios/hard.ric -S "$SOCKET")
HSESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')
START=$(date +%s)
T=$("$RIC" request rcdp "$HSESSION" QH --timeout-ms 100 -S "$SOCKET")
ELAPSED=$(( $(date +%s) - START ))
echo "timeout: $T (${ELAPSED}s)"
case "$T" in
  *'"verdict":"timeout"'*) ;;
  *) echo "FAIL: deadline did not produce a timeout verdict" >&2; exit 1 ;;
esac
if [ "$ELAPSED" -gt 5 ]; then
  echo "FAIL: 100 ms deadline took ${ELAPSED}s" >&2
  exit 1
fi

# the daemon is still healthy and serving after the aborted search
"$RIC" request ping -S "$SOCKET" >/dev/null
OPEN=$("$RIC" request open scenarios/crm.ric -S "$SOCKET")
CSESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')
"$RIC" request insert "$CSESSION" Supt e1 d1 c2 -S "$SOCKET" >/dev/null

# SIGTERM drains gracefully: clean exit, socket file removed
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: SIGTERM exit was not clean" >&2; exit 1; }
SERVER_PID=""
if [ -e "$SOCKET" ]; then
  echo "FAIL: socket file survived graceful shutdown" >&2
  exit 1
fi

# --recover restores the journaled sessions (with their inserts)
"$RIC" serve -S "$SOCKET" -d 2 --journal "$JOURNAL" --recover &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come back up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done
RECOVERED=$("$RIC" request rcdp "$CSESSION" Q0 -S "$SOCKET" 2>/dev/null || true)
echo "recover: $RECOVERED"
case "$RECOVERED" in
  '{"ok":true,'*'"epoch":1'*) ;;
  *) echo "FAIL: recovered session did not answer at epoch 1" >&2; exit 1 ;;
esac

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$JOURNAL"

echo "== soak smoke test"
# >= 200 concurrent clients hammering a forked daemon for a few
# seconds; the harness itself exits nonzero on any protocol-level
# failure (a connection dropped without a structured reply), an
# unclean SIGTERM drain, or a shed counter inconsistent with the
# overloaded replies the clients observed
SOAK_OUT="${TMPDIR:-/tmp}/ricd-check-$$-soak.json"
RIC_SOAK_CLIENTS="${RIC_SOAK_CLIENTS:-200}" \
  RIC_SOAK_SECONDS="${RIC_SOAK_SECONDS:-3}" \
  RIC_SOAK_OUT="$SOAK_OUT" \
  _build/default/bench/service.exe soak \
  || { echo "FAIL: soak smoke failed" >&2; rm -f "$SOAK_OUT"; exit 1; }
case "$(cat "$SOAK_OUT")" in
  *'"protocol_failures":0'*) ;;
  *) echo "FAIL: soak dropped connections without a structured reply" >&2
     rm -f "$SOAK_OUT"; exit 1 ;;
esac
case "$(cat "$SOAK_OUT")" in
  *'"clean_exit":true'*) ;;
  *) echo "FAIL: daemon did not drain cleanly under SIGTERM" >&2
     rm -f "$SOAK_OUT"; exit 1 ;;
esac

echo "== soak p99 guard"
# fresh p99 latency must not regress by more than
# RIC_BENCH_SERVE_TOLERANCE_PCT (default 25) percent over the
# committed BENCH_serve.json baseline (same 200-client smoke scale)
SERVE_BASELINE="BENCH_serve.json"
if [ -f "$SERVE_BASELINE" ]; then
  STOL="${RIC_BENCH_SERVE_TOLERANCE_PCT:-25}"
  soak_p99() { sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' "$1"; }
  SBASE=$(soak_p99 "$SERVE_BASELINE")
  SFRESH=$(soak_p99 "$SOAK_OUT")
  if [ -z "$SBASE" ] || [ -z "$SFRESH" ]; then
    echo "FAIL: could not extract p99_us for the soak guard" >&2
    rm -f "$SOAK_OUT"
    exit 1
  fi
  echo "soak p99 (us): baseline $SBASE, fresh $SFRESH (tolerance ${STOL}%)"
  if [ $((SFRESH * 100)) -gt $((SBASE * (100 + STOL))) ]; then
    echo "FAIL: soak p99 is more than ${STOL}% above $SERVE_BASELINE" >&2
    rm -f "$SOAK_OUT"
    exit 1
  fi
else
  echo "skip: no $SERVE_BASELINE baseline committed"
fi
rm -f "$SOAK_OUT"

echo "== search-mode bench smoke test"
# the seq and par valuation-search strategies on the hostile instance
# with a small step budget; the bench exits nonzero if any scenario
# query gets a different verdict under seq vs par
BENCH_OUT="${TMPDIR:-/tmp}/ricd-check-$$-bench.json"
RIC_BENCH_STEPS=20000 RIC_BENCH_OUT="$BENCH_OUT" \
  _build/default/bench/main.exe search \
  || { echo "FAIL: search-mode verdicts diverged" >&2; rm -f "$BENCH_OUT"; exit 1; }
case "$(cat "$BENCH_OUT")" in
  *'"all_agree":true'*) ;;
  *) echo "FAIL: $BENCH_OUT does not record agreement" >&2; rm -f "$BENCH_OUT"; exit 1 ;;
esac
rm -f "$BENCH_OUT"

echo "== match-kernel bench smoke test"
# compiled kernel vs naive oracle: the bench exits nonzero when the
# solution counts diverge or the compiled path is slower than the oracle
MATCH_OUT="${TMPDIR:-/tmp}/ricd-check-$$-match.json"
RIC_BENCH_MATCH_OUT="$MATCH_OUT" _build/default/bench/main.exe match \
  || { echo "FAIL: match-kernel bench failed" >&2; rm -f "$MATCH_OUT"; exit 1; }

echo "== match-kernel bench guard"
# fresh compiled solves/s must stay within RIC_BENCH_MATCH_TOLERANCE_PCT
# (default 25 — a microbench is noisier than the step-metered search)
# of the committed BENCH_match.json baseline
MATCH_BASELINE="BENCH_match.json"
if [ -f "$MATCH_BASELINE" ]; then
  MTOL="${RIC_BENCH_MATCH_TOLERANCE_PCT:-25}"
  match_sps() { sed -n 's/.*"compiled_solves_per_sec":\([0-9]*\).*/\1/p' "$1"; }
  MBASE=$(match_sps "$MATCH_BASELINE")
  MFRESH=$(match_sps "$MATCH_OUT")
  if [ -z "$MBASE" ] || [ -z "$MFRESH" ]; then
    echo "FAIL: could not extract compiled_solves_per_sec for the match guard" >&2
    rm -f "$MATCH_OUT"
    exit 1
  fi
  echo "compiled solves/s: baseline $MBASE, fresh $MFRESH (tolerance ${MTOL}%)"
  if [ $((MFRESH * 100)) -lt $((MBASE * (100 - MTOL))) ]; then
    echo "FAIL: compiled kernel is more than ${MTOL}% slower than $MATCH_BASELINE" >&2
    rm -f "$MATCH_OUT"
    exit 1
  fi
else
  echo "skip: no $MATCH_BASELINE baseline committed"
fi
rm -f "$MATCH_OUT"

echo "== mining smoke test"
# mining the crm scenario must emit a non-empty constraint block and
# the cross-check must flip at least one query to Complete
MINED=$("$RIC" mine scenarios/crm.ric --check)
case "$MINED" in
  *'constraint mined-1('*) ;;
  *) echo "FAIL: ric mine emitted no constraints" >&2; exit 1 ;;
esac
case "$MINED" in
  *'[flipped to Complete]'*) ;;
  *) echo "FAIL: mined constraints flipped no query to Complete" >&2; exit 1 ;;
esac
# the mined block must survive a parser round trip
MINE_RT="${TMPDIR:-/tmp}/ricd-check-$$-mined.ric"
"$RIC" mine scenarios/crm.ric --full > "$MINE_RT"
"$RIC" file show "$MINE_RT" >/dev/null \
  || { echo "FAIL: mined scenario did not reparse" >&2; rm -f "$MINE_RT"; exit 1; }
rm -f "$MINE_RT"
# contract: an empty instance is a clean no-op, not an error
EMPTY_RIC="${TMPDIR:-/tmp}/ricd-check-$$-empty.ric"
printf 'schema R(a, b).\nmaster M(a).\nrows M { (m0) }.\n' > "$EMPTY_RIC"
EMPTY_ERR=$("$RIC" mine "$EMPTY_RIC" 2>&1 >/dev/null) \
  || { echo "FAIL: mine on an empty instance exited nonzero" >&2; rm -f "$EMPTY_RIC"; exit 1; }
case "$EMPTY_ERR" in
  *'nothing to mine'*) ;;
  *) echo "FAIL: empty instance did not explain itself on stderr" >&2; rm -f "$EMPTY_RIC"; exit 1 ;;
esac
rm -f "$EMPTY_RIC"
# contract: an exhausted budget yields partial results with a marker
TIMED=$("$RIC" mine scenarios/crm.ric --timeout-ms 1 2>/dev/null) \
  || { echo "FAIL: mine under a 1 ms budget exited nonzero" >&2; exit 1; }
case "$TIMED" in
  *'# timeout:'*'(partial results)'*) ;;
  *) echo "FAIL: exhausted budget did not leave a timeout marker" >&2; exit 1 ;;
esac
echo "mine:    crm block mined, reparsed, flip observed; contracts hold"

echo "== mining bench smoke test"
# seq vs pool-parallel scoring must accept the same constraint set;
# the bench exits nonzero on divergence
MINE_OUT="${TMPDIR:-/tmp}/ricd-check-$$-mine.json"
RIC_BENCH_MINE_OUT="$MINE_OUT" _build/default/bench/main.exe mine \
  || { echo "FAIL: mining bench failed" >&2; rm -f "$MINE_OUT"; exit 1; }

echo "== mining bench guard"
# the median of three fresh sequential candidates/s on crm (the smoke
# run above and two more) must stay within RIC_BENCH_MINE_TOLERANCE_PCT
# (default 25) of the committed baseline, itself the median of five
# runs on the host its "nproc" names
MINE_BASELINE="BENCH_mine.json"
if [ -f "$MINE_BASELINE" ]; then
  NTOL="${RIC_BENCH_MINE_TOLERANCE_PCT:-25}"
  # first occurrence = the crm row (greedy sed would grab the last)
  mine_cps() {
    grep -o '"seq_candidates_per_sec":[0-9]*' "$1" | head -n 1 | grep -o '[0-9]*$'
  }
  NBASE=$(mine_cps "$MINE_BASELINE")
  mine_again() {
    RIC_BENCH_MINE_OUT="$MINE_OUT" _build/default/bench/main.exe mine >/dev/null \
      || { echo "FAIL: mining bench failed" >&2; return 1; }
    mine_cps "$MINE_OUT"
  }
  NRUN1=$(mine_cps "$MINE_OUT")
  NRUN2=$(mine_again) || { rm -f "$MINE_OUT"; exit 1; }
  NRUN3=$(mine_again) || { rm -f "$MINE_OUT"; exit 1; }
  if [ -z "$NBASE" ] || [ -z "$NRUN1" ] || [ -z "$NRUN2" ] || [ -z "$NRUN3" ]; then
    echo "FAIL: could not extract seq_candidates_per_sec for the mine guard" >&2
    rm -f "$MINE_OUT"
    exit 1
  fi
  NFRESH=$(median3 "$NRUN1" "$NRUN2" "$NRUN3")
  echo "mining candidates/s: baseline $NBASE, fresh median $NFRESH of $NRUN1 $NRUN2 $NRUN3 (tolerance ${NTOL}%)"
  if [ $((NFRESH * 100)) -lt $((NBASE * (100 - NTOL))) ]; then
    echo "FAIL: mining is more than ${NTOL}% slower than $MINE_BASELINE" >&2
    rm -f "$MINE_OUT"
    exit 1
  fi
else
  echo "skip: no $MINE_BASELINE baseline committed"
fi
rm -f "$MINE_OUT"

echo "== bench guard (instrumentation must not slow the seq search)"
# re-measure untraced seq steps/s at the committed baseline's step cap
# and require it within RIC_BENCH_TOLERANCE_PCT (default 5) percent of
# BENCH_search.json — the zero-cost-when-disabled contract, kept honest
BASELINE="BENCH_search.json"
if [ -f "$BASELINE" ]; then
  TOL="${RIC_BENCH_TOLERANCE_PCT:-5}"
  seq_sps() { sed -n 's/.*"mode":"seq"[^}]*"steps_per_sec":\([0-9]*\).*/\1/p' "$1"; }
  BASE_SPS=$(seq_sps "$BASELINE")
  BASE_CAP=$(sed -n 's/.*"step_cap":\([0-9]*\).*/\1/p' "$BASELINE")
  GUARD_OUT="${TMPDIR:-/tmp}/ricd-check-$$-guard.json"
  RIC_BENCH_STEPS="${BASE_CAP:-400000}" RIC_BENCH_OUT="$GUARD_OUT" \
    _build/default/bench/main.exe search >/dev/null \
    || { echo "FAIL: bench guard run failed" >&2; rm -f "$GUARD_OUT"; exit 1; }
  FRESH_SPS=$(seq_sps "$GUARD_OUT")
  if [ -z "$BASE_SPS" ] || [ -z "$FRESH_SPS" ]; then
    echo "FAIL: could not extract seq steps_per_sec for the bench guard" >&2
    rm -f "$GUARD_OUT"
    exit 1
  fi
  echo "seq steps/s: baseline $BASE_SPS, fresh $FRESH_SPS (tolerance ${TOL}%)"
  if [ $((FRESH_SPS * 100)) -lt $((BASE_SPS * (100 - TOL))) ]; then
    echo "FAIL: seq search is more than ${TOL}% slower than $BASELINE" >&2
    rm -f "$GUARD_OUT"
    exit 1
  fi

  echo "== par-vs-seq guard (parallel mode must not cost throughput)"
  # same fresh run: the bench times seq and par:4 within each interleaved
  # round and records the best paired par/seq ratio — that pairing
  # cancels the ~10% run-to-run load swing of a shared host, so the
  # gate can stay tight at RIC_BENCH_PAR_TOLERANCE_PCT (default 5)
  # percent; on a one-core host the par engine degrades to seq, so
  # anything below is coordination overhead leaking back in; scaling
  # itself is asserted by the bench's forced worker sweep (steal
  # counter + per-worker utilisation)
  PTOL="${RIC_BENCH_PAR_TOLERANCE_PCT:-5}"
  FRESH_RATIO=$(sed -n 's/.*"par_vs_seq_best_round_ratio_pct":\([0-9]*\).*/\1/p' "$GUARD_OUT")
  rm -f "$GUARD_OUT"
  if [ -z "$FRESH_RATIO" ]; then
    echo "FAIL: could not extract par_vs_seq_best_round_ratio_pct for the par guard" >&2
    exit 1
  fi
  echo "par:4 vs seq best paired-round ratio: ${FRESH_RATIO}% (floor $((100 - PTOL))%)"
  if [ "$FRESH_RATIO" -lt $((100 - PTOL)) ]; then
    echo "FAIL: par:4 is more than ${PTOL}% below seq in every round" >&2
    exit 1
  fi

  # the committed baseline must carry the scaling sweep (steals and
  # per-worker utilisation under forced workers)
  case "$(cat "$BASELINE")" in
    *'"scaling":'*'"steals":'*) ;;
    *) echo "FAIL: $BASELINE has no scaling section" >&2; exit 1 ;;
  esac
else
  echo "skip: no $BASELINE baseline committed"
fi

echo "== ric gen smoke test"
# each generated family must emit, reparse, and (where tractable)
# decide; the same (family, tuples, seed) must be byte-identical
GEN_RIC="${TMPDIR:-/tmp}/ricd-check-$$-gen.ric"
GEN_RIC2="${TMPDIR:-/tmp}/ricd-check-$$-gen2.ric"
cleanup_gen() { rm -f "$GEN_RIC" "$GEN_RIC2"; }
trap 'cleanup_gen; cleanup2' EXIT INT TERM
"$RIC" gen triple --tuples 2000 --seed 11 -o "$GEN_RIC"
"$RIC" gen triple --tuples 2000 --seed 11 -o "$GEN_RIC2"
cmp -s "$GEN_RIC" "$GEN_RIC2" \
  || { echo "FAIL: ric gen is not deterministic by seed" >&2; exit 1; }
"$RIC" file show "$GEN_RIC" >/dev/null \
  || { echo "FAIL: generated triple scenario did not reparse" >&2; exit 1; }
GVERDICT=$("$RIC" file rcdp "$GEN_RIC" --query QT)
case "$GVERDICT" in
  *incomplete*) ;;
  *) echo "FAIL: QT over generated triples must be incomplete" >&2; exit 1 ;;
esac
"$RIC" gen telco --tuples 2000 --seed 5 -o "$GEN_RIC"
"$RIC" file show "$GEN_RIC" >/dev/null \
  || { echo "FAIL: generated telco scenario did not reparse" >&2; exit 1; }
"$RIC" gen ladder --rung 1 --seed 3 -o "$GEN_RIC"
"$RIC" file rcdp "$GEN_RIC" --query QL >/dev/null \
  || { echo "FAIL: ladder rung 1 did not decide" >&2; exit 1; }
rm -f "$GEN_RIC" "$GEN_RIC2"
echo "gen:     triple deterministic + incomplete, telco reparses, ladder decides"

echo "== ingest bench smoke test"
# streaming columnar loader vs slurp baseline on generated files; the
# bench exits nonzero if the two loaders ever build different databases
LOAD_OUT="${TMPDIR:-/tmp}/ricd-check-$$-load.json"
LOAD_BASELINE="BENCH_load.json"
if [ -f "$LOAD_BASELINE" ]; then
  LBASE_TUPLES=$(sed -n 's/.*"top_tuples":\([0-9]*\).*/\1/p' "$LOAD_BASELINE")
fi
RIC_BENCH_LOAD_TUPLES="${RIC_BENCH_LOAD_TUPLES:-${LBASE_TUPLES:-1000000}}" \
  RIC_BENCH_LOAD_OUT="$LOAD_OUT" \
  _build/default/bench/main.exe load >/dev/null \
  || { echo "FAIL: ingest bench failed (stream/slurp divergence?)" >&2; rm -f "$LOAD_OUT"; exit 1; }

echo "== ingest bench guard"
# the median of three fresh streaming tuples/s at the baseline's top
# rung (the smoke run above and two more) must stay within
# RIC_BENCH_LOAD_TOLERANCE_PCT (default 25) of BENCH_load.json, itself
# the median of five runs on the host its "nproc" names; the first
# stream_tuples_per_sec in the file is the top (headline) rung
if [ -f "$LOAD_BASELINE" ]; then
  LTOL="${RIC_BENCH_LOAD_TOLERANCE_PCT:-25}"
  load_sps() {
    grep -o '"stream_tuples_per_sec":[0-9]*' "$1" | head -n 1 | grep -o '[0-9]*$'
  }
  LBASE=$(load_sps "$LOAD_BASELINE")
  LFRESH_TOP=$(sed -n 's/.*"top_tuples":\([0-9]*\).*/\1/p' "$LOAD_OUT")
  load_again() {
    RIC_BENCH_LOAD_TUPLES="$LFRESH_TOP" RIC_BENCH_LOAD_OUT="$LOAD_OUT" \
      _build/default/bench/main.exe load >/dev/null \
      || { echo "FAIL: ingest bench failed (stream/slurp divergence?)" >&2; return 1; }
    load_sps "$LOAD_OUT"
  }
  LRUN1=$(load_sps "$LOAD_OUT")
  LRUN2=$(load_again) || { rm -f "$LOAD_OUT"; exit 1; }
  LRUN3=$(load_again) || { rm -f "$LOAD_OUT"; exit 1; }
  if [ -z "$LBASE" ] || [ -z "$LRUN1" ] || [ -z "$LRUN2" ] || [ -z "$LRUN3" ]; then
    echo "FAIL: could not extract stream_tuples_per_sec for the load guard" >&2
    rm -f "$LOAD_OUT"
    exit 1
  fi
  LFRESH=$(median3 "$LRUN1" "$LRUN2" "$LRUN3")
  if [ "$LFRESH_TOP" != "${LBASE_TUPLES:-}" ]; then
    echo "skip: fresh run at $LFRESH_TOP tuples, baseline at ${LBASE_TUPLES:-?} — not comparable"
  else
    echo "stream tuples/s: baseline $LBASE, fresh median $LFRESH of $LRUN1 $LRUN2 $LRUN3 (tolerance ${LTOL}%)"
    if [ $((LFRESH * 100)) -lt $((LBASE * (100 - LTOL))) ]; then
      echo "FAIL: streaming ingest is more than ${LTOL}% slower than $LOAD_BASELINE" >&2
      rm -f "$LOAD_OUT"
      exit 1
    fi
  fi
else
  echo "skip: no $LOAD_BASELINE baseline committed"
fi
rm -f "$LOAD_OUT"

echo "== all checks passed"

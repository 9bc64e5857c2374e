#!/usr/bin/env bash
# CI's console-script checks: the CLI end to end on documents from tiny to
# 100,000 agents, with the expected exit codes, time limits and output shapes.
#
#   ci/console.sh WORK_DIR COMMAND...
#
# COMMAND is how the CLI is started: `reserves` where the package is
# installed, or `python -m reserves.cli` with src on PYTHONPATH. The outputs
# go to WORK_DIR; a second run into the same directory overwrites them. Run it
# from the repository root, whose tests/documents.py some steps import.
set -eo pipefail
[ $# -ge 2 ] || { echo "usage: $0 WORK_DIR COMMAND..." >&2; exit 2; }
work=$1
cli=("${@:2}")
mkdir -p "$work"

"${cli[@]}" gen --agents 6 --categories 2 --seed 7 --unreserved 2 --out "$work/i.json"
"${cli[@]}" allocate --rule srr --split 1,1 --instance "$work/i.json" \
  | "${cli[@]}" check --instance "$work/i.json" --split 1,1 --matching -
"${cli[@]}" verify --count 3 --max-agents 5 --seed 1
"${cli[@]}" verify --count 20 --max-agents 19 --seed 1
# the oracle at its agent bound on the scarce shape, where the F-set
# walk has the most to cut (about 3 s)
timeout 20 "${cli[@]}" verify --count 200 --max-agents 19 --categories 3 --unreserved 1 \
  --tie-prob 0.5 --seed 1
# the rejection scan at scale: 3000 agents, 50 categories (about 2 s)
"${cli[@]}" gen --agents 3000 --categories 50 --max-quota 50 --seed 77 \
  --out "$work/big.json"
timeout 20 "${cli[@]}" allocate --rule rr --instance "$work/big.json" \
  --out "$work/big-rr.json"
# its table: the trace's rows, one ms_tested line per agent, and nothing on stderr
timeout 20 "${cli[@]}" allocate --rule rr --instance "$work/big.json" --format table \
  >"$work/big-rr.txt" 2>"$work/big-table.err"
rows=$(grep -c '^ *ms_tested: ' "$work/big-rr.txt" || true)
[ "$rows" -eq 3000 ] || { echo "the rr table has $rows ms_tested lines, expected 3000"; exit 1; }
if [ -s "$work/big-table.err" ]; then
  cat "$work/big-table.err"; echo "the rr table wrote to stderr"; exit 1
fi
# an agent name holding a newline is escaped in the table, so it forges no row
python -c "import json, sys; names = ['a', 'b\n    ms_tested: 9']
json.dump({'agents': names, 'baseline': names, 'categories': [{'name': 'c', 'quota': 1,
  'kind': 'preferential', 'tiers': [names], 'cutoff': 1}]}, open(sys.argv[1], 'w'))" \
  "$work/newline.json"
"${cli[@]}" allocate --rule rr --instance "$work/newline.json" --format table \
  >"$work/newline.txt"
rows=$(grep -c '^ *ms_tested: ' "$work/newline.txt" || true)
[ "$rows" -eq 2 ] || { echo "the two-agent table has $rows ms_tested lines, expected 2"; exit 1; }
# and at 100000 agents, where undoing a test replays only its writes (about 2 s)
"${cli[@]}" gen --agents 100000 --categories 50 --max-quota 50 --eligibility-density 0.05 \
  --seed 77 --out "$work/huge-rr.json"
timeout 30 "${cli[@]}" allocate --rule rr --instance "$work/huge-rr.json" \
  --out "$work/huge-rr-out.json"
# deferred acceptance there, each agent listing her eligible categories in
# document order (about 2 s; popping the free list from its front took 8-9 s)
python -c "import json, sys; doc = json.load(open(sys.argv[1])); prefs = {a: [] for a in doc['agents']}
for c in doc['categories']: [prefs[a].append(c['name']) for tier in c['tiers'][:c['cutoff']] for a in tier]
json.dump({'prefs': prefs}, open(sys.argv[2], 'w'))" "$work/huge-rr.json" "$work/huge-prefs.json"
timeout 10 "${cli[@]}" allocate --rule da --instance "$work/huge-rr.json" \
  --prefs "$work/huge-prefs.json" --out "$work/huge-da.json" 2>"$work/da.err"
if grep -q Traceback "$work/da.err"; then
  cat "$work/da.err"; echo "da at 100000 agents printed a traceback"; exit 1
fi
# srr there too, with 20000 unreserved units: phase 1's scan down the baseline (about 2 s)
"${cli[@]}" gen --agents 100000 --categories 50 --max-quota 50 --eligibility-density 0.05 \
  --seed 77 --unreserved 20000 --out "$work/huge-unres.json"
timeout 30 "${cli[@]}" allocate --rule srr --split 10000,10000 \
  --instance "$work/huge-unres.json" --out "$work/huge-unres-srr.json"
# the CLI's indented JSON, built with the C encoder, is json.dumps(indent=2) output
python -c "import json, sys; text = open(sys.argv[1]).read()
sys.exit(text != json.dumps(json.loads(text), indent=2) + '\n')" "$work/huge-rr-out.json" \
  || { echo "huge-rr-out.json differs from json.dumps(indent=2)"; exit 1; }
# the axiom checkers at scale: srr's output at 10000 agents (about 0.7 s to check)
"${cli[@]}" gen --agents 10000 --categories 50 --max-quota 50 --eligibility-density 0.05 \
  --tie-prob 0.4 --seed 77 --unreserved 2000 --out "$work/huge.json"
"${cli[@]}" allocate --rule srr --split 1000,1000 --instance "$work/huge.json" \
  --out "$work/huge-srr.json"
timeout 5 "${cli[@]}" check --split 1000,1000 --instance "$work/huge.json" \
  --matching "$work/huge-srr.json"
# one preferential pair short, the matching cannot certify its own size,
# so both size axioms fall back to the preferential engine and fail
python -c "import json, sys; doc = json.load(open(sys.argv[1])); a = doc['assignment']
del a[next(k for k, c in a.items() if not c.startswith('u'))]; json.dump(doc, open(sys.argv[2], 'w'))" \
  "$work/huge-srr.json" "$work/huge-short.json"
status=0
"${cli[@]}" check --split 1000,1000 --instance "$work/huge.json" \
  --matching "$work/huge-short.json" --axioms max_size,max_beneficiary || status=$?
[ "$status" -eq 1 ] || { echo "size check of a short matching exited $status, expected 1"; exit 1; }
# a chain of 3000 quota-1 categories: the initial solve's augmenting path
# runs through every column, three times Python's recursion limit
python -c "import json, sys; sys.path.insert(0, 'tests'); from documents import chain_doc
m = 3000; json.dump(chain_doc(m, True), open(sys.argv[1], 'w'))
json.dump({'assignment': {f'a{i}': f'c{i + 1}' for i in range(m)}}, open(sys.argv[2], 'w'))" \
  "$work/chain.json" "$work/chain-short.json"
timeout 20 "${cli[@]}" allocate --rule rr --instance "$work/chain.json" \
  --out "$work/chain-rr.json" 2>"$work/chain.err"
# one pair short of the maximum: the size check fails (exit 1), with no traceback
status=0
"${cli[@]}" check --instance "$work/chain.json" --matching "$work/chain-short.json" \
  --axioms max_size 2>>"$work/chain.err" >/dev/null || status=$?
[ "$status" -eq 1 ] || { echo "size check of the short chain matching exited $status, expected 1"; exit 1; }
if grep -q Traceback "$work/chain.err"; then
  cat "$work/chain.err"; echo "a chain run printed a traceback"; exit 1
fi
# 20000 categories: each name is looked up among the earlier ones in a set
# (under 1 s to parse and check; comparing with every earlier name took over 20 s)
"${cli[@]}" gen --agents 2000 --categories 20000 --max-quota 1 --eligibility-density 0.001 \
  --seed 7 --out "$work/wide.json"
echo '{}' > "$work/wide-empty.json"
status=0
timeout 10 "${cli[@]}" check --instance "$work/wide.json" \
  --matching "$work/wide-empty.json" --axioms eligibility \
  2>"$work/wide.err" >/dev/null || status=$?
[ "$status" -eq 0 ] || { echo "eligibility check on 20000 categories exited $status, expected 0"; exit 1; }
if grep -q Traceback "$work/wide.err"; then
  cat "$work/wide.err"; echo "the 20000-category check printed a traceback"; exit 1
fi
# mg and oaa are srr with every unreserved unit processed last and first
python -c "import json, sys; sys.path.insert(0, 'tests')
from documents import RESERVE_DOC, RUNNING_DOC
json.dump(RESERVE_DOC, open(sys.argv[1], 'w')); json.dump(RUNNING_DOC, open(sys.argv[2], 'w'))" \
  "$work/reserve.json" "$work/running.json"
same_as_srr() {
  "${cli[@]}" allocate --rule "$1" --instance "$work/reserve.json" --out "$work/$1.json"
  "${cli[@]}" allocate --rule srr --split "$2" --instance "$work/reserve.json" \
    --out "$work/srr.json"
  python -c "import json, sys; a, b = (json.load(open(p))['assignment'] for p in sys.argv[1:])
sys.exit(a != b)" "$work/$1.json" "$work/srr.json" \
    || { echo "$1 differs from srr --split $2"; exit 1; }
}
same_as_srr mg 0,1
same_as_srr oaa 1,0
# an agent eligible for two preferential categories is outside mg's domain
status=0
"${cli[@]}" allocate --rule mg --instance "$work/running.json" || status=$?
[ "$status" -eq 3 ] || { echo "mg outside its domain exited $status, expected 3"; exit 1; }
# the soft harnesses skip manipulated reports outside soft's domain
"${cli[@]}" gen --agents 5 --categories 2 --seed 7 --unreserved 1 --out "$work/soft.json"
status=0
"${cli[@]}" check --rule soft --instance "$work/soft.json" --split 0,1 \
  --axioms strategyproofness || status=$?
[ "$status" -le 1 ] || { echo "soft strategyproofness check exited $status"; exit 1; }
# both rr harnesses on 40 agents and 10 dense categories: 15,266 hide re-runs
# (about 5-7 s; re-proving every enumerated decrease took 15-23 s)
"${cli[@]}" gen --agents 40 --categories 10 --max-quota 1 --eligibility-density 0.9 \
  --seed 3 --out "$work/harness.json"
timeout 15 "${cli[@]}" check --rule rr --axioms strategyproofness,weak_nonbossiness \
  --instance "$work/harness.json" 2>"$work/harness.err" >/dev/null
if grep -q Traceback "$work/harness.err"; then
  cat "$work/harness.err"; echo "the k=10 harness check printed a traceback"; exit 1
fi
# input errors exit 2 from the process, not 1 from an uncaught exception
python -c "print('[' * 200000)" > "$work/deep.json"
expect_2() {
  status=0
  "${cli[@]}" "$@" || status=$?
  [ "$status" -eq 2 ] || { echo "reserves $* exited $status, expected 2"; exit 1; }
}
expect_2 allocate --rule rr --split 1,1 --instance "$work/i.json"
expect_2 allocate --rule rr --instance "$work/deep.json"
expect_2 allocate --rule rr --prefs "$work/i.json" --instance "$work/i.json"
# verify prints its summary to stdout only: --out is a usage error and writes nothing
rm -f "$work/verify.txt"
expect_2 verify --count 1 --max-agents 3 --out "$work/verify.txt"
[ ! -e "$work/verify.txt" ] || { echo "verify --out created $work/verify.txt"; exit 1; }
"${cli[@]}" gen --agents 3 --categories 1 --seed 1 --out "$work/plain.json"
echo '{}' > "$work/empty.json"
expect_2 check --instance "$work/plain.json" --matching "$work/empty.json" --split 1,1
# tier names that the bulk lookup rejects: not a string, unhashable, unknown
for tier in '["a", 1]' '["a", ["x"]]' '["a", "zz"]'; do
  echo "{\"agents\": [\"a\"], \"baseline\": [\"a\"], \"categories\": [{\"name\": \"c\",
    \"quota\": 1, \"kind\": \"preferential\", \"tiers\": [$tier], \"cutoff\": 1}]}" \
    > "$work/bad-tier.json"
  expect_2 allocate --rule rr --instance "$work/bad-tier.json"
done
# a reader that closes early: exit 2 with one error line and no traceback,
# also from the flush at interpreter exit, which no in-process test reaches
set +e
"${cli[@]}" gen --agents 100000 --categories 50 --seed 77 2>"$work/pipe.err" \
  | head -c 1 >/dev/null
status=${PIPESTATUS[0]}
set -e
[ "$status" -eq 2 ] || { echo "gen into a closed pipe exited $status, expected 2"; exit 1; }
if grep -q Traceback "$work/pipe.err"; then
  cat "$work/pipe.err"; echo "gen into a closed pipe printed a traceback"; exit 1
fi

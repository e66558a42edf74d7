#!/usr/bin/env bash
# Quickstart equivalence checks: the learning-health gate, the flight
# recorder's replay equivalence and crash-safe checkpoint/resume
# (DESIGN.md §5.11-§5.13), on 8 quickstart, 2 replicate and 2 `fasea run`
# runs under results/equivalence.
#
#   bash devtools/equivalence.sh          # after pip install -e .
#   make equivalence                      # from a source checkout
#
# Exits 0 when every check passes; otherwise exits 1 at the first failed
# check with "equivalence: FAILED: <check>" on stderr.
set -euo pipefail

OUT=results/equivalence

fasea() { python -m repro "$@"; }
fail() { echo "equivalence: FAILED: $*" >&2; exit 1; }
step() { echo "== $*"; }

# Run `fasea quickstart ARGS... --out OUT` with RunCheckpointer.save
# patched to SIGKILL the process (each worker under --jobs) on its Nth
# save; require a non-zero exit and the checkpoints the run left behind.
kill_on_save() {
    local n=$1 out=$2 status
    shift 2
    set +e
    python - "$n" "$@" --out "$out" <<'PY'
import os
import signal
import sys

from repro.io import checkpoint as ckpt_mod

limit = int(sys.argv[1])
real_save = ckpt_mod.RunCheckpointer.save
saves = {"n": 0}


def killing_save(self, arrays):
    path = real_save(self, arrays)
    saves["n"] += 1
    if saves["n"] >= limit:
        os.kill(os.getpid(), signal.SIGKILL)
    return path


ckpt_mod.RunCheckpointer.save = killing_save
from repro.cli import main  # noqa: E402

main(["quickstart", *sys.argv[2:]])
PY
    status=$?
    set -e
    [ "$status" -ne 0 ] || fail "$out: quickstart was not killed on save $n (exit 0)"
    compgen -G "$out/checkpoints/*.ckpt.npz" > /dev/null \
        || fail "$out: no checkpoints left behind by the killed run"
}

rm -rf "$OUT"

step "record quickstart flight logs (serial x2, --jobs 4)"
fasea quickstart --quiet --flight --health --out "$OUT/flight-a" || fail "quickstart serial-a"
fasea quickstart --quiet --flight --health --out "$OUT/flight-b" || fail "quickstart serial-b"
fasea quickstart --quiet --flight --health --jobs 4 --out "$OUT/flight-jobs4" \
    || fail "quickstart --jobs 4"

step "capacity-exhaustion alert fires at OPT's golden drop point"
python - "$OUT/flight-a/alerts.jsonl" <<'PY' || fail "OPT capacity-exhaustion onset is not (60, 5.0)"
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    records = [json.loads(line) for line in handle]
onsets = {r["policy"]: r for r in records if r["rule"] == "capacity-exhaustion"}
if "OPT" not in onsets:
    sys.exit(f"no OPT firing, got {sorted(onsets)}")
opt = onsets["OPT"]
if (opt["round"], opt["value"]) != (60, 5.0):
    sys.exit(f"OPT onset (round, value) = {(opt['round'], opt['value'])}")
PY

step "health report and dashboard render"
fasea obs health "$OUT/flight-a" || fail "obs health (text)"
fasea obs health "$OUT/flight-a" --format json > /dev/null || fail "obs health --format json"
fasea obs health "$OUT/flight-a" --html "$OUT/flight-a/health.html" || fail "obs health --html"
fasea obs top "$OUT/flight-a" --once || fail "obs top --once"

step "decision and alert logs are byte-identical across runs and workers"
for log in decisions.jsonl alerts.jsonl; do
    cmp "$OUT/flight-a/$log" "$OUT/flight-b/$log" || fail "$log differs: serial-a vs serial-b"
    cmp "$OUT/flight-a/$log" "$OUT/flight-jobs4/$log" || fail "$log differs: serial-a vs --jobs 4"
done

step "replicate health and flight logs are byte-identical at --jobs 1 and 2"
# Replicate runs several cells through one serial executor call; each
# cell's health pass reads only the series that cell recorded.
for jobs in 1 2; do
    fasea replicate --seeds 2 --horizon 600 --jobs "$jobs" --health \
        --flight "$OUT/replicate-jobs$jobs" > /dev/null || fail "replicate --jobs $jobs"
done
[ -s "$OUT/replicate-jobs1/alerts.jsonl" ] || fail "replicate wrote no alerts"
for log in decisions.jsonl alerts.jsonl health.json; do
    cmp "$OUT/replicate-jobs1/$log" "$OUT/replicate-jobs2/$log" \
        || fail "$log differs: replicate --jobs 1 vs --jobs 2"
done

step "fasea run health and alert logs are byte-identical across runs"
for run in a b; do
    fasea run fig2 --horizon 150 --health --stream --profile 8 --quiet \
        --out "$OUT/run-$run" || fail "run fig2 ($run)"
done
for log in health.json alerts.jsonl; do
    cmp "$OUT/run-a/fig2/$log" "$OUT/run-b/fig2/$log" || fail "$log differs: run fig2 a vs b"
done

step "replay, diff and off-policy evaluation"
fasea obs replay "$OUT/flight-a" || fail "obs replay diverged from the recorded rewards"
fasea obs diff "$OUT/flight-a" "$OUT/flight-b" || fail "obs diff reports drift between the serial runs"
fasea obs ope "$OUT/flight-a" --policy UCB --behavior eGreedy --format json \
    || fail "obs ope on the recorded eGreedy stream"

step "serial kill on the 12th checkpoint save, then resume"
fasea quickstart --quiet --flight --health --checkpoint 200 --out "$OUT/golden" \
    || fail "golden quickstart"
kill_on_save 12 "$OUT/victim" --quiet --flight --health --checkpoint 200
fasea quickstart --quiet --flight --health --out "$OUT/victim" \
    --resume "$OUT/victim/checkpoints" || fail "serial resume"
for log in decisions.jsonl health.json alerts.jsonl; do
    cmp "$OUT/golden/$log" "$OUT/victim/$log" || fail "$log differs: serial resume vs golden"
done
python - "$OUT/golden" "$OUT/victim" <<'PY' || fail "serial resume metrics.json"
import json
import sys


def scrubbed(out):
    with open(f"{out}/metrics.json", encoding="utf-8") as handle:
        document = json.load(handle)
    return {
        section: (
            {name: value for name, value in content.items() if "seconds" not in name}
            if isinstance(content, dict)
            else content
        )
        for section, content in document.items()
    }


golden, victim = scrubbed(sys.argv[1]), scrubbed(sys.argv[2])
if golden != victim:
    sys.exit("scrubbed metrics.json differs: serial resume vs golden")
if not victim["counters"]["checkpoint.saves"] > 0:
    sys.exit("resumed run reports checkpoint.saves == 0")
PY

step "--jobs 4 kill on every worker's 3rd checkpoint save, then resume"
kill_on_save 3 "$OUT/victim4" --quiet --flight --health --checkpoint 200 --jobs 4
fasea quickstart --quiet --flight --health --jobs 4 --out "$OUT/victim4" \
    --resume "$OUT/victim4/checkpoints" || fail "--jobs 4 resume"
for log in decisions.jsonl health.json alerts.jsonl; do
    cmp "$OUT/golden/$log" "$OUT/victim4/$log" \
        || fail "$log differs: --jobs 4 resume vs serial golden"
done

echo "equivalence: all checks passed"

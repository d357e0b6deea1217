#!/bin/sh
# Full-surface oracle refresh at three scales -> CORRECTNESS_full_r<ROUND>.json.
# Usage: tools/refresh_correctness.sh ROUND
# Run at session end (touches /tmp/si_builder_busy so the scaling hunt
# skips probes; waits for any in-flight pair first).
set -e
ROUND=${1:?usage: tools/refresh_correctness.sh ROUND}
cd "$(dirname "$0")/.."
while [ -f /tmp/si_scaling_pair.lock ]; do sleep 20; done
touch /tmp/si_builder_busy
trap 'rm -f /tmp/si_builder_busy' EXIT
python tools/check_entry.py /root/testdata/sf0.001 --json=/tmp/cf_sf0.001.json
python tools/check_entry.py /root/testdata/sf0.01  --json=/tmp/cf_sf0.01.json
python tools/check_entry.py /root/testdata/sf0.1   --json=/tmp/cf_sf0.1.json
python - "$ROUND" <<'EOF'
import json
import sys
rnd = int(sys.argv[1])
scales = ("sf0.001", "sf0.01", "sf0.1")
out = {sf: json.load(open(f"/tmp/cf_{sf}.json")) for sf in scales}
counts = "; ".join(
    f"{sf}: {d['n_queries']} queries, {d['n_ok']} SQL-oracled OK, "
    f"{d['n_rows_only']} rows-only, {d['n_failures']} failures"
    for sf, d in out.items())
out["round"] = rnd
out["note"] = ("Full-surface oracle run (every queries() entry vs its DuckDB "
               "oracle: row count + sorted columns + exact values) via "
               "tools/check_entry.py --json at THREE scales, covering "
               "the whole surface ("
               + counts + ").")
path = f"CORRECTNESS_full_r{rnd}.json"
json.dump(out, open(path, "w"), indent=1, sort_keys=True)
print("wrote", path)
for sf in scales:
    print(sf, "failures:", out[sf]["n_failures"], "of",
          out[sf]["n_queries"])
EOF

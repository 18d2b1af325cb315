#!/usr/bin/env bash
# Batch memory gate: runs `datamaran_cli FILE --out=DIR --threads=4` on a
# generated 1x and 4x log and gates how the child's anonymous resident
# memory grows with the file. The generator is deterministic (counter-based, no RNG):
# 60% app-log lines, 30% access-log lines and 10% free text, so discovery
# finds several record types and the write sinks see real rows and noise.
#
# The contract under test: `--out` extracts in one streaming scan, so the
# memory the process allocates is O(sample) for discovery plus O(wave) for
# the scan and the writers, never O(file). The gate samples RssAnon from
# /proc/<pid>/status while the CLI runs (four threads, so the parallel
# scan's wave buffers are measured on any runner); mapped input pages are
# file-backed (RssFile), legitimately grow with the file and are excluded.
# The input's line index (8 bytes per line) is the one anonymous structure
# that does grow with the file; the slack covers it at the default sizes.
# Fails on a nonzero CLI exit, a missing table, or
#
#   peak_anon(4x) > 1.5 * peak_anon(1x) + slack
#
#   tools/batch_rss.sh [base_bytes] [slack_kb]
#
# DM_CLI overrides the binary under test (default build/datamaran_cli).
# Requires Linux /proc and python3 (used only to sample the child's
# status file).
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_BYTES="${1:-16000000}"  # 1x input; the 4x input is four times this
SLACK_KB="${2:-16384}"       # 16 MiB
CLI="${DM_CLI:-build/datamaran_cli}"

if [ ! -x "$CLI" ]; then
  echo "batch_rss: $CLI not found (run the tier-1 build first)" >&2
  exit 1
fi
if [ ! -r /proc/self/status ]; then
  echo "batch_rss: /proc/<pid>/status is required" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

generate() {
  awk -v total="$1" 'BEGIN {
    b = 0; i = 0;
    while (b < total) {
      r = i % 10;
      if (r < 6) {
        line = sprintf("2024-03-%02d %02d:%02d:%02d INFO [worker-%d] " \
                       "req=%d user=u%d status=%d bytes=%d",
                       i % 28 + 1, i % 24, i % 60, (i * 7) % 60, i % 8, i,
                       i % 997, 200 + (i % 4) * 100, (i * 37) % 100000);
      } else if (r < 9) {
        line = sprintf("10.%d.%d.%d - - \"GET /api/item/%d HTTP/1.1\" %d %d",
                       i % 256, (i * 3) % 256, (i * 7) % 256, i % 5000,
                       200 + (i % 3) * 100, (i * 13) % 50000);
      } else {
        line = "note " i " was left by the operator without any structure";
      }
      print line;
      b += length(line) + 1; i++;
    }
  }'
}

# Runs the CLI on $1 with --out=$2 and prints the peak RssAnon in kB.
peak_anon_kb() {
  python3 - "$CLI" "$1" "$2" <<'EOF'
import subprocess, sys, time
cli, path, out = sys.argv[1:4]
proc = subprocess.Popen([cli, path, "--out=" + out, "--threads=4"],
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
peak = 0
status = "/proc/%d/status" % proc.pid
while proc.poll() is None:
    try:
        with open(status) as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    peak = max(peak, int(line.split()[1]))
                    break
    except (OSError, ValueError):
        pass
    time.sleep(0.005)
err = proc.stderr.read().decode(errors="replace")
if proc.returncode != 0:
    sys.stderr.write(err)
    sys.exit("batch_rss: CLI exited %d on %s" % (proc.returncode, path))
if peak == 0:
    sys.exit("batch_rss: no RssAnon sample for %s" % path)
print(peak)
EOF
}

declare -A peak
for scale in 1 4; do
  input="$workdir/batch_${scale}x.log"
  generate $((BASE_BYTES * scale)) > "$input"
  out="$workdir/out_${scale}x"
  peak[$scale]="$(peak_anon_kb "$input" "$out")"
  if [ ! -s "$out/type0.csv" ]; then
    echo "batch_rss: FAIL — no type0.csv written for the ${scale}x input" >&2
    exit 1
  fi
  echo "batch_rss: ${scale}x ($(stat -c %s "$input") bytes): peak RssAnon ${peak[$scale]} kB"
done

budget_kb=$(( peak[1] * 3 / 2 + SLACK_KB ))
echo "batch_rss: 4x budget ${budget_kb} kB (1.5 x ${peak[1]} + ${SLACK_KB})"
if [ "${peak[4]}" -gt "$budget_kb" ]; then
  echo "batch_rss: FAIL — anonymous memory grows with the input" >&2
  exit 1
fi
echo "batch_rss: OK"

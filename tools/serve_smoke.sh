#!/usr/bin/env sh
# End-to-end smoke of the always-on analysis service: start landscape_survey
# in --follow mode on an ephemeral port, let its deterministic workload mine
# deploys/upgrades/empty blocks, and assert over real loopback HTTP that
#   - /v1/contract answers flip to the new implementation after an upgrade,
#   - /v1/codehash of that contract's code hash lists it, with a body whose
#     Content-Length matches,
#   - /v1/status shows the staleness gauge back at 0 between laps,
#   - /v1/vulns filters by class and rejects unknown classes,
#   - /metrics carries the sweep.follower.* gauges,
#   - /healthz parks the phase at "following" between laps.
# The unit suite (test_query_service) covers the rendering and the follower
# protocol; this covers the wiring an operator actually runs.
#
# Usage: tools/serve_smoke.sh [build-dir]
#   build-dir defaults to ./build (configured if missing).
set -eu

BUILD_DIR="${1:-build}"

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)" \
  --target landscape_survey

TMP="$(mktemp -d)"
SURVEY_PID=""
cleanup() {
  if [ -n "${SURVEY_PID}" ] && kill -0 "${SURVEY_PID}" 2>/dev/null; then
    kill "${SURVEY_PID}" 2>/dev/null || true
    wait "${SURVEY_PID}" 2>/dev/null || true
  fi
  rm -rf "${TMP}"
}
trap cleanup EXIT INT TERM

echo "== start landscape_survey --follow --serve 0 (ephemeral port) =="
"${BUILD_DIR}/examples/landscape_survey" \
  --follow --blocks 0 --serve 0 --population 800 \
  --checkpoint "${TMP}/follow.journal" \
  --events "${TMP}/events.ndjson" \
  >"${TMP}/stdout.log" 2>"${TMP}/stderr.log" &
SURVEY_PID=$!

# The port line appears once population generation finishes and the server
# is bound; the format is pinned in examples/landscape_survey.cpp.
PORT=""
i=0
while [ "${i}" -lt 120 ]; do
  PORT="$(sed -n 's/^serving introspection on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
    "${TMP}/stdout.log")"
  [ -n "${PORT}" ] && break
  if ! kill -0 "${SURVEY_PID}" 2>/dev/null; then
    echo "landscape_survey exited before serving:" >&2
    cat "${TMP}/stdout.log" "${TMP}/stderr.log" >&2
    exit 1
  fi
  i=$((i + 1))
  sleep 1
done
if [ -z "${PORT}" ]; then
  echo "timed out waiting for the serving line" >&2
  exit 1
fi
echo "  serving on 127.0.0.1:${PORT}"

# Wait for the workload's first upgrade line (format pinned in the example).
i=0
while [ "${i}" -lt 120 ]; do
  if grep -q '^follow: block=[0-9]* upgrade ' "${TMP}/stdout.log"; then break; fi
  i=$((i + 1))
  sleep 1
done

echo "== query the /v1 plane while the follower laps =="
python3 - "${PORT}" "${TMP}/stdout.log" <<'EOF'
import json
import re
import sys
import time
import urllib.error
import urllib.request

port = int(sys.argv[1])
log_path = sys.argv[2]
base = f"http://127.0.0.1:{port}"


def get(path):
    """Returns (status, parsed JSON body); 4xx bodies are JSON too."""
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def upgrades():
    """addr -> (set of impls ever written, last block)."""
    out = {}
    with open(log_path) as f:
        for line in f:
            m = re.match(
                r"follow: block=(\d+) (?:upgrade|deploy-upgrade) "
                r"addr=(0x[0-9a-f]{40}) impl=(0x[0-9a-f]{40})", line)
            if m:
                block, addr, impl = int(m.group(1)), m.group(2), m.group(3)
                impls, _ = out.get(addr, (set(), 0))
                impls.add(impl)
                out[addr] = (impls, block)
    return out


# 1. Upgrade visibility: the served implementation flips to a written one.
deadline = time.monotonic() + 120
flipped = None
while flipped is None:
    assert time.monotonic() < deadline, "no upgrade became visible over /v1"
    for addr, (impls, block) in upgrades().items():
        status, body = get(f"/v1/contract/{addr}")
        if status != 200 or body["head_block"] < block:
            continue  # snapshot not caught up to this write yet
        if body["logic"]["logic_address"] in impls:
            flipped = (addr, body)
            break
    if flipped is None:
        time.sleep(0.5)
addr, body = flipped
assert body["verdict"] == "proxy", body
assert body["logic"]["source"] == "storage-slot", body
print(f"  /v1/contract/{addr[:10]}…: impl flipped at head {body['head_block']}")

# 2. The flipped contract's clone family, over real HTTP: the body arrives
#    whole (its Content-Length matches), parses, and lists the address.
code_hash = body["code_hash"]
with urllib.request.urlopen(f"{base}/v1/codehash/{code_hash}",
                            timeout=10) as resp:
    raw = resp.read()
    assert int(resp.headers["Content-Length"]) == len(raw), resp.headers
family = json.loads(raw.decode())
assert family["code_hash"] == code_hash, family
assert family["count"] >= len(family["addresses"]) >= 1, family
assert family["truncated"] == (family["count"] > len(family["addresses"])), family
assert addr in family["addresses"] or family["truncated"], family
print(f"  /v1/codehash/{code_hash[:10]}…: {family['count']} member(s), "
      f"{len(raw)} bytes, flipped address listed")

# 3. Staleness returns to 0 between laps (the workload fences every block).
deadline = time.monotonic() + 60
while True:
    status, st = get("/v1/status")
    assert status == 200
    if st["staleness_blocks"] == 0 and st["laps"] >= 1:
        break
    assert time.monotonic() < deadline, f"staleness never drained: {st}"
    time.sleep(0.2)
assert st["following"] is True, st
assert st["snapshot_entries"] > 0, st
print(f"  /v1/status: laps={st['laps']} fast_forwards={st['fast_forwards']} "
      f"staleness=0 entries={st['snapshot_entries']}")

# 4. Vulnerability-class filtering + the uniform error shape.
status, vulns = get("/v1/vulns?class=storage_collision")
assert status == 200 and vulns["class"] == "storage_collision", vulns
assert vulns["count"] == len(vulns["addresses"]) or vulns["truncated"], vulns
status, err = get("/v1/vulns?class=bogus")
assert status == 400 and err["error"] == "unknown_class", err
status, err = get("/v1/contract/" + "0" * 40)
assert status == 404 and err["error"] == "not_found", err
status, err = get("/v1/contract/xyz")
assert status == 400 and err["error"] == "bad_address", err
print(f"  /v1/vulns: {vulns['count']} storage_collision hit(s); "
      "error shapes uniform")

# 5. The follower gauges are exported and /healthz is in the following phase.
with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
    metrics = resp.read().decode()
for series in ("proxion_sweep_follower_head",
               "proxion_sweep_follower_staleness_blocks",
               "proxion_sweep_follower_laps",
               "proxion_sweep_follower_snapshot_version"):
    assert series in metrics, f"missing {series}"

deadline = time.monotonic() + 60
while True:
    with urllib.request.urlopen(base + "/healthz", timeout=10) as resp:
        health = json.loads(resp.read().decode())
    if health["phase"] == "following":
        break
    assert time.monotonic() < deadline, f"never parked at following: {health}"
    time.sleep(0.2)
print(f"  /metrics: follower gauges present; /healthz phase=following")
EOF

kill "${SURVEY_PID}" 2>/dev/null || true
wait "${SURVEY_PID}" 2>/dev/null || true
SURVEY_PID=""

# The structured event log must have absorbed the follower's lap lines.
if ! grep -q '"component":"follower"' "${TMP}/events.ndjson"; then
  echo "events.ndjson has no follower events" >&2
  exit 1
fi
echo "  events.ndjson: $(wc -l <"${TMP}/events.ndjson") events"

echo "serve_smoke: OK"

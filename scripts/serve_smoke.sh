#!/usr/bin/env bash
# Smoke + chaos test of the qc_serve daemon as a real process: starts the
# binary, drives it with concurrent clients (one clean pass, also booted
# with a misspelled knob that must log knob_unknown, one pass with
# network+allocator faults injected via QC_FAULT — including the sweep and
# cancel-path sites srv_timeout/srv_cancel — and one control-plane pass
# exercising cancel-by-id and per-client quota sheds), then sends SIGTERM
# and asserts a graceful drain with exit code 0. Run against an ASan build
# to also catch leaks/UB on the daemon's failure paths (the script fails on
# any sanitizer report in the daemon's stderr).
#
# Usage: serve_smoke.sh <path-to-qc_serve> [workdir]
set -u

BIN=${1:?usage: serve_smoke.sh <path-to-qc_serve> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
LOG="$WORK/qc_serve.log"
FAIL=0

say() { echo "serve_smoke: $*"; }
fail() { say "FAIL: $*"; FAIL=1; }

start_daemon() {  # $1 = QC_FAULT spec ("" = none), $2.. = extra VAR=val env
  local faults="${1:-}"
  shift || true
  : > "$LOG"
  env QC_SERVE_PORT=0 QC_SERVE_SF=0.01 QC_SERVE_WORKERS=2 \
      QC_FAULT="$faults" "$@" "$BIN" 2> "$LOG" &
  DAEMON_PID=$!
  for _ in $(seq 1 240); do
    if grep -q "event=listening" "$LOG" 2>/dev/null; then break; fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
      fail "daemon died during startup"; cat "$LOG"; return 1
    fi
    sleep 0.5
  done
  PORT=$(grep -oE "event=listening port=[0-9]+" "$LOG" | grep -oE "[0-9]+$")
  if [ -z "$PORT" ]; then fail "no listening port in log"; return 1; fi
  say "daemon up on port $PORT (pid $DAEMON_PID)"
}

drive_clients() {  # $1 = tag, $2 = tolerate-errors (0/1)
  python3 - "$PORT" "$2" <<'PYEOF'
import socket, sys, threading

port, tolerate = int(sys.argv[1]), sys.argv[2] == "1"
ok, err, lock = [0], [0], threading.Lock()

def read_response(s):
    buf = b""
    s.settimeout(30)
    while True:
        if buf.startswith(b"ERR") and b"\n" in buf:
            return buf
        if b"\n.\n" in buf:
            return buf
        chunk = s.recv(65536)
        if not chunk:
            return buf
        buf += chunk

def client(cid):
    try:
        s = socket.create_connection(("127.0.0.1", port), timeout=10)
        for i in range(25):
            q = [1, 3, 6, 12][(cid + i) % 4]
            s.sendall(("QUERY %d\n" % q).encode())
            resp = read_response(s)
            with lock:
                if resp.startswith(b"OK "):
                    ok[0] += 1
                else:
                    err[0] += 1
            if not resp:
                return  # connection torn down (injected fault): stop
        s.close()
    except OSError:
        with lock:
            err[0] += 1

threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
for t in threads: t.start()
for t in threads: t.join()
print("clients: ok=%d err=%d" % (ok[0], err[0]))
if ok[0] == 0:
    sys.exit(2)       # nothing succeeded: broken even under chaos
if err[0] and not tolerate:
    sys.exit(3)       # clean pass must be error-free
sys.exit(0)
PYEOF
  rc=$?
  case $rc in
    0) say "$1 client pass ok" ;;
    2) fail "$1: zero successful requests" ;;
    3) fail "$1: errors on the clean pass" ;;
    *) fail "$1: client driver crashed (rc=$rc)" ;;
  esac
}

check_metrics() {  # Prometheus exposition must carry the expected families
  python3 - "$PORT" <<'PYEOF'
import socket, sys

port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
s.settimeout(10)
buf = b""
body = b""
while True:
    if b"\r\n\r\n" in buf:
        head, body = buf.split(b"\r\n\r\n", 1)
        clen = [h for h in head.split(b"\r\n")
                if h.lower().startswith(b"content-length:")]
        if clen and len(body) >= int(clen[0].split(b":")[1]):
            break
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
s.close()
body = body.decode(errors="replace")
want = [
    "# TYPE qc_server_requests_total counter",
    "qc_server_requests_total",
    "qc_server_ok_total",
    "qc_server_connections_total",
    "qc_server_request_ms_bucket",
    "qc_plan_cache_hits_total",
]
missing = [w for w in want if w not in body]
if missing:
    print("missing metric families: %s" % missing)
    sys.exit(4)
print("metrics: all expected families present")
sys.exit(0)
PYEOF
  if [ $? -ne 0 ]; then fail "GET /metrics missing expected families"; fi
}

stop_daemon() {
  kill -TERM "$DAEMON_PID" 2>/dev/null
  EXIT_CODE=1
  if wait "$DAEMON_PID"; then EXIT_CODE=0; else EXIT_CODE=$?; fi
  if [ "$EXIT_CODE" -ne 0 ]; then
    fail "daemon exit code $EXIT_CODE after SIGTERM (want 0)"
  fi
  if ! grep -q "event=draining" "$LOG"; then
    fail "no drain record in daemon log"
  fi
  if grep -qE "ERROR: (Address|Leak)Sanitizer|runtime error:" "$LOG"; then
    fail "sanitizer report in daemon log"
    grep -E "ERROR: (Address|Leak)Sanitizer|runtime error:" "$LOG" | head -5
  fi
}

# --- pass 1: clean, plus a misspelled knob the daemon must name -----------
say "pass 1: clean (misspelled QC_SERVE_WORKER=2)"
if start_daemon "" QC_SERVE_WORKER=2; then
  drive_clients "clean" 0
  check_metrics
  stop_daemon
  if ! grep -q "event=knob_unknown name=QC_SERVE_WORKER$" "$LOG"; then
    fail "misspelled QC_SERVE_WORKER not reported as knob_unknown"
  fi
fi

# --- pass 2: chaos (network faults + a transient allocation fault) ---------
# srv_timeout fires from the sweep once connections exist; srv_cancel needs
# a CANCEL on the wire, which the driver below sends before the query mix.
CHAOS="srv_read:3,srv_write:5,alloc_heap:5,srv_timeout:4,srv_cancel:1"
say "pass 2: chaos (QC_FAULT=$CHAOS)"
if start_daemon "$CHAOS"; then
  python3 - "$PORT" <<'PYEOF'
import socket, sys
# Exercise the cancel control plane under chaos: any structured answer
# (cancel_failed from the injected fault, not_found otherwise) or a torn
# connection is acceptable; a hang is not.
try:
    s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
    s.settimeout(10)
    s.sendall(b"CANCEL 999999\n")
    resp = s.recv(4096)
    print("chaos cancel probe: %r" % resp[:40])
    s.close()
except OSError as e:
    print("chaos cancel probe: torn (%s)" % e)
sys.exit(0)
PYEOF
  drive_clients "chaos" 1
  stop_daemon
  # The injected faults must actually have fired and been counted.
  if ! grep -qE 'net_faults=[1-9]' "$LOG"; then
    fail "chaos pass: net_faults counter is zero (faults never fired)"
    tail -2 "$LOG"
  fi
fi

# --- pass 3: client control plane (cancel-by-id, per-client quota) ----------
say "pass 3: control plane (QC_SERVE_DEBUG=1 QC_SERVE_CLIENT_QPS=2)"
if start_daemon "" QC_SERVE_DEBUG=1 QC_SERVE_CLIENT_QPS=2; then
  python3 - "$PORT" <<'PYEOF'
import socket, sys, time

port = int(sys.argv[1])
rc = 0

def fail(msg):
    global rc
    print("control plane: FAIL: %s" % msg)
    rc = 5

# Cancel-by-id: ack=1 returns the server-assigned id up front; cancelling
# from another connection must unwind the 8s block in safepoint time.
a = socket.create_connection(("127.0.0.1", port), timeout=10)
a.settimeout(15)
a.sendall(b"BLOCK 8000 ack=1\n")
ack = b""
while b"\n" not in ack:
    chunk = a.recv(4096)
    if not chunk:
        break
    ack += chunk
if not ack.startswith(b"ID "):
    fail("no ID ack for BLOCK ack=1: %r" % ack[:40])
else:
    rid = ack.split(b"\n", 1)[0][3:].decode()
    time.sleep(0.3)  # let a worker pop the block
    c = socket.create_connection(("127.0.0.1", port), timeout=10)
    c.settimeout(10)
    c.sendall(("CANCEL %s\n" % rid).encode())
    cresp = b""
    while b"\n.\n" not in cresp and not (cresp.startswith(b"ERR")
                                         and b"\n" in cresp):
        chunk = c.recv(4096)
        if not chunk:
            break
        cresp += chunk
    c.close()
    if b"cancelled" not in cresp:
        fail("CANCEL %s answered %r" % (rid, cresp[:60]))
    t0 = time.time()
    victim = b""
    try:
        while b"\n" not in victim:
            chunk = a.recv(4096)
            if not chunk:
                break
            victim += chunk
    except OSError:
        pass
    if not victim.startswith(b"ERR cancelled"):
        fail("victim saw %r, want ERR cancelled" % victim[:60])
    if time.time() - t0 > 4.0:
        fail("cancel took %.1fs to unwind an 8s block" % (time.time() - t0))
a.close()

# Per-client quota: a greedy tenant bursting past 2 qps must see
# structured quota sheds while the daemon keeps serving.
g = socket.create_connection(("127.0.0.1", port), timeout=10)
g.settimeout(10)
quota, okc = 0, 0
for _ in range(6):
    g.sendall(b"QUERY 1 client=greedy\n")
    buf = b""
    while b"\n.\n" not in buf and not (buf.startswith(b"ERR")
                                       and b"\n" in buf):
        chunk = g.recv(65536)
        if not chunk:
            break
        buf += chunk
    if buf.startswith(b"OK "):
        okc += 1
    elif buf.startswith(b"ERR quota"):
        quota += 1
g.close()
if okc < 1:
    fail("no greedy request admitted (burst broken)")
if quota < 1:
    fail("no quota shed after %d rapid requests (ok=%d)" % (6, okc))

# The per-client counters must surface as labeled /metrics families, and
# the greedy tenant's quota sheds must all be counted.
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.settimeout(10)
s.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
buf, body = b"", b""
while True:
    if b"\r\n\r\n" in buf:
        head, body = buf.split(b"\r\n\r\n", 1)
        clen = [h for h in head.split(b"\r\n")
                if h.lower().startswith(b"content-length:")]
        if clen and len(body) >= int(clen[0].split(b":")[1]):
            break
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
s.close()
def client_value(family):
    prefix = family + b'{client="greedy"} '
    for line in body.split(b"\n"):
        if line.startswith(prefix):
            return int(line[len(prefix):])
    return None

if client_value(b"qc_server_client_admitted_total") is None:
    fail("/metrics has no qc_server_client_admitted_total for greedy")
shed = client_value(b"qc_server_client_shed_quota_total")
if shed is None:
    fail("/metrics has no qc_server_client_shed_quota_total for greedy")
elif shed < quota:
    fail("greedy shed_quota=%d < %d quota sheds observed" % (shed, quota))

if rc == 0:
    print("control plane: cancel-by-id + quota + per-client metrics ok")
sys.exit(rc)
PYEOF
  if [ $? -ne 0 ]; then fail "control-plane pass failed"; fi
  stop_daemon
fi

if [ "$FAIL" -eq 0 ]; then
  say "PASS"
else
  say "log tail:"; tail -20 "$LOG"
fi
exit $FAIL

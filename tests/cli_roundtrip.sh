#!/bin/sh
# End-to-end integration test of the tre_cli tool, registered with ctest.
# $1 = path to the tre_cli binary.
set -e
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

"$CLI" params >/dev/null

# Plain keys, FO roundtrip.
"$CLI" server-keygen --set tre-toy-96 --key server.key --pub server.pub
"$CLI" user-keygen --server-pub server.pub --key user.key --pub user.pub
printf 'open at the appointed hour' > msg.txt
"$CLI" encrypt --user-pub user.pub --server-pub server.pub \
  --tag "2031-05-05T05:05:05Z" --in msg.txt --out ct.bin --mode fo
"$CLI" issue --server-key server.key --tag "2031-05-05T05:05:05Z" --out update.bin
"$CLI" verify-update --server-pub server.pub --update update.bin >/dev/null
"$CLI" decrypt --user-key user.key --server-pub server.pub --update update.bin \
  --in ct.bin --out out.txt
cmp msg.txt out.txt

# Every mode roundtrips; decrypt reads the flavour from the file kind.
for mode in basic react; do
  "$CLI" encrypt --user-pub user.pub --server-pub server.pub \
    --tag "2031-05-05T05:05:05Z" --in msg.txt --out "ct-$mode.bin" --mode "$mode"
  "$CLI" decrypt --user-key user.key --server-pub server.pub --update update.bin \
    --in "ct-$mode.bin" --out "out-$mode.txt"
  cmp msg.txt "out-$mode.txt"
done

# Sealed (mode-tagged) wire: one file kind, the mode byte says.
for mode in sealed sealed-basic sealed-fo sealed-react; do
  "$CLI" encrypt --user-pub user.pub --server-pub server.pub \
    --tag "2031-05-05T05:05:05Z" --in msg.txt --out "ct-$mode.bin" --mode "$mode"
  "$CLI" decrypt --user-key user.key --server-pub server.pub --update update.bin \
    --in "ct-$mode.bin" --out "out-$mode.txt"
  cmp msg.txt "out-$mode.txt"
done

# --metrics dumps a registry snapshot JSON that counts the command's work.
"$CLI" decrypt --user-key user.key --server-pub server.pub --update update.bin \
  --in ct-sealed.bin --out out-m.txt --metrics metrics.json
cmp msg.txt out-m.txt
grep -q '"counters"' metrics.json
grep -qE '"core\.opens": [1-9]' metrics.json
"$CLI" params --metrics - | grep -q '"counters"'

# The wrong update must NOT decrypt under FO.
"$CLI" issue --server-key server.key --tag "2031-01-01T00:00:00Z" --out early.bin
if "$CLI" decrypt --user-key user.key --server-pub server.pub --update early.bin \
  --in ct.bin --out bad.txt 2>/dev/null; then
  echo "FAIL: decrypted with the wrong update" >&2
  exit 1
fi

# Password-protected keys.
"$CLI" server-keygen --set tre-toy-96 --key sealed.key --pub sealed.pub --password pw1
"$CLI" issue --server-key sealed.key --password pw1 --tag T --out u.bin
if "$CLI" issue --server-key sealed.key --password nope --tag T --out u.bin 2>/dev/null; then
  echo "FAIL: wrong password accepted" >&2
  exit 1
fi

# File-kind confusion is rejected.
if "$CLI" verify-update --server-pub update.bin --update server.pub 2>/dev/null; then
  echo "FAIL: swapped file kinds accepted" >&2
  exit 1
fi

# ---- BLS12-381 backend: same commands, same flow, modern curve. -------
"$CLI" params | grep -q 'bls12-381'
"$CLI" server-keygen --backend bls381 --key server381.key --pub server381.pub
"$CLI" user-keygen --server-pub server381.pub --key user381.key --pub user381.pub
"$CLI" encrypt --user-pub user381.pub --server-pub server381.pub \
  --tag "2031-05-05T05:05:05Z" --in msg.txt --out ct381.bin --mode sealed
"$CLI" issue --server-key server381.key --tag "2031-05-05T05:05:05Z" --out update381.bin
"$CLI" verify-update --server-pub server381.pub --update update381.bin >/dev/null
"$CLI" decrypt --user-key user381.key --server-pub server381.pub \
  --update update381.bin --in ct381.bin --out out381.txt
cmp msg.txt out381.txt

# An explicit --backend is cross-checked against the files.
"$CLI" issue --backend bls381 --server-key server381.key --tag T381 --out u381.bin
if "$CLI" issue --backend tre512 --server-key server381.key --tag T381 \
  --out u381b.bin 2>/dev/null; then
  echo "FAIL: --backend tre512 accepted bls381 key file" >&2
  exit 1
fi

# Cross-backend artifacts are rejected before any cryptography runs.
if "$CLI" verify-update --server-pub server381.pub --update update.bin 2>/dev/null; then
  echo "FAIL: type-1 update accepted by bls381 server key" >&2
  exit 1
fi
if "$CLI" decrypt --user-key user.key --server-pub server.pub --update update.bin \
  --in ct381.bin --out cross.txt 2>/dev/null; then
  echo "FAIL: bls381 ciphertext decrypted with type-1 keys" >&2
  exit 1
fi

# ---- Hybrid time-lock fallback. ---------------------------------------
# Both lanes must open the same envelope: the server lane via decrypt,
# the fallback lane via solve — bit-identical plaintexts. Tiny modulus
# and squaring count keep this fast; production dials are far larger.
"$CLI" encrypt --user-pub user.pub --server-pub server.pub \
  --tag "2031-05-05T05:05:05Z" --in msg.txt --out ct-hybrid.bin \
  --fallback 3000 --fallback-modulus-bits 256
"$CLI" decrypt --user-key user.key --server-pub server.pub --update update.bin \
  --in ct-hybrid.bin --out out-hybrid-server.txt
cmp msg.txt out-hybrid-server.txt

# Fallback lane, interrupted: a small budget must exit 3 and leave a
# checkpoint; the resumed run finishes and matches.
set +e
"$CLI" solve --in ct-hybrid.bin --out out-hybrid-solve.txt \
  --checkpoint ck.bin --budget 1000 --checkpoint-every 400
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "FAIL: exhausted solve budget should exit 3 (got $rc)" >&2
  exit 1
fi
test -f ck.bin
"$CLI" solve --in ct-hybrid.bin --out out-hybrid-solve.txt \
  --checkpoint ck.bin --checkpoint-every 400 | grep -q 'resumed from'
cmp msg.txt out-hybrid-solve.txt

# A corrupted checkpoint is rejected, not silently resumed (same size,
# scrambled contents).
{ tail -c 308 ck.bin; head -c 308 ck.bin; } > ck-bad.bin
if "$CLI" solve --in ct-hybrid.bin --out bad.txt --checkpoint ck-bad.bin \
  --budget 1 2>/dev/null; then
  echo "FAIL: corrupted checkpoint accepted" >&2
  exit 1
fi

# Hybrid on the bls381 backend too.
"$CLI" encrypt --user-pub user381.pub --server-pub server381.pub \
  --tag "2031-05-05T05:05:05Z" --in msg.txt --out ct381-hybrid.bin \
  --fallback 500 --fallback-modulus-bits 256
"$CLI" solve --in ct381-hybrid.bin --out out381-solve.txt
cmp msg.txt out381-solve.txt

# ---- Power-on self-tests. ---------------------------------------------
# Clean suite passes; an injected corruption makes the command fail.
"$CLI" selftest | grep -q 'selftest:'
if TRE_SELFTEST_FAULT=sha256 "$CLI" selftest >/dev/null 2>&1; then
  echo "FAIL: injected sha256 corruption not detected" >&2
  exit 1
fi
if TRE_SELFTEST_FAULT=not-a-kat "$CLI" selftest >/dev/null 2>&1; then
  echo "FAIL: unknown fault name should fail closed" >&2
  exit 1
fi

# ---- Batch-verified catch-up over a live daemon. ----------------------
# serve issues three past instants; fetch --from/--to replays the archive
# through kGetRange, verifies the page as one randomized batch, and keeps
# only the requested window. The fetched envelopes must be bit-identical
# to locally issued ones (golden single-item identity survives batching).
"$CLI" serve --pub server.pub --server-key server.key \
  --tags "2005-06-06T09:00Z,2005-06-06T09:01Z,2005-06-06T09:02Z" \
  --port 0 --port-file serve.port &
SERVE_PID=$!
i=0
while [ ! -s serve.port ] && [ $i -lt 50 ]; do
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: serve died" >&2; exit 1; }
  sleep 0.1
  i=$((i + 1))
done
test -s serve.port
PORT=$(cat serve.port)

mkdir catchup
"$CLI" fetch --server-pub server.pub --remote "127.0.0.1:$PORT" \
  --from "2005-06-06T09:01Z" --to "2005-06-06T09:02Z" --out-dir catchup \
  | grep -q '2 updates fetched and VERIFIED'
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

test -f catchup/update-000000.bin
test -f catchup/update-000001.bin
test ! -f catchup/update-000002.bin  # 09:00Z lies outside the window
for f in catchup/update-000000.bin catchup/update-000001.bin; do
  "$CLI" verify-update --server-pub server.pub --update "$f" >/dev/null
done
"$CLI" issue --server-key server.key --tag "2005-06-06T09:01Z" --out issued-0901.bin
"$CLI" issue --server-key server.key --tag "2005-06-06T09:02Z" --out issued-0902.bin
cmp catchup/update-000000.bin issued-0901.bin
cmp catchup/update-000001.bin issued-0902.bin

echo "cli roundtrip ok"

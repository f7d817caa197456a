#!/bin/sh
# End-to-end integration test of the tre_cli and tred tools, registered
# with ctest: every command, on tre-toy-96 and on bls12-381.
# $1 = path to the tre_cli binary, $2 = path to the tred binary.
set -e
CLI="$1"
TRED="$2"
DIR=$(mktemp -d)
PIDS=""
# Kills every daemon start_daemon started; the exit trap runs it too, so
# no daemon outlives the test, pass or fail.
stop_daemons() {
  for p in $PIDS; do kill "$p" 2>/dev/null || true; done
  for p in $PIDS; do wait "$p" 2>/dev/null || true; done
  PIDS=""
}
trap 'stop_daemons; rm -rf "$DIR"' EXIT
cd "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# refuse WHAT CMD...: CMD must fail; WHAT says what it must not do.
refuse() {
  what=$1
  shift
  if "$@" >/dev/null 2>&1; then fail "$what"; fi
}

# refuse_with TEXT CMD...: CMD must fail with an error that contains TEXT.
refuse_with() {
  text=$1
  shift
  if "$@" >/dev/null 2>err.txt; then fail "accepted: $*"; fi
  grep -q -e "$text" err.txt || fail "no \"$text\" in the error: $(cat err.txt)"
}

# start_daemon NAME CMD...: runs CMD on an ephemeral port in the
# background and sets PORT once it listens (up to 20 s: sanitizer trees
# start slowly).
start_daemon() {
  name=$1
  shift
  "$@" --port 0 --port-file "$name.port" >"$name.log" &
  pid=$!
  PIDS="$PIDS $pid"
  tries=0
  while [ ! -s "$name.port" ]; do
    kill -0 "$pid" 2>/dev/null || fail "$name exited before it listened"
    [ "$tries" -lt 400 ] || fail "$name wrote no port file"
    sleep 0.05
    tries=$((tries + 1))
  done
  PORT=$(cat "$name.port")
}

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
refuse "decrypted with the wrong update" "$CLI" decrypt --user-key user.key \
  --server-pub server.pub --update early.bin --in ct.bin --out bad.txt

# Password-protected keys.
"$CLI" server-keygen --set tre-toy-96 --key sealed.key --pub sealed.pub --password pw1
"$CLI" issue --server-key sealed.key --password pw1 --tag T --out u.bin
refuse "wrong password accepted" "$CLI" issue --server-key sealed.key \
  --password nope --tag T --out u.bin

# File-kind confusion is rejected.
refuse "swapped file kinds accepted" "$CLI" verify-update \
  --server-pub update.bin --update server.pub

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
refuse "--backend tre512 accepted bls381 key file" "$CLI" issue \
  --backend tre512 --server-key server381.key --tag T381 --out u381b.bin

# Cross-backend artifacts are rejected before any cryptography runs.
refuse "type-1 update accepted by bls381 server key" "$CLI" verify-update \
  --server-pub server381.pub --update update.bin
refuse "bls381 ciphertext decrypted with type-1 keys" "$CLI" decrypt \
  --user-key user.key --server-pub server.pub --update update.bin \
  --in ct381.bin --out cross.txt

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
refuse "corrupted checkpoint accepted" "$CLI" solve --in ct-hybrid.bin \
  --out bad.txt --checkpoint ck-bad.bin --budget 1

# Hybrid on the bls381 backend too.
"$CLI" encrypt --user-pub user381.pub --server-pub server381.pub \
  --tag "2031-05-05T05:05:05Z" --in msg.txt --out ct381-hybrid.bin \
  --fallback 500 --fallback-modulus-bits 256
"$CLI" solve --in ct381-hybrid.bin --out out381-solve.txt
cmp msg.txt out381-solve.txt

# ---- Power-on self-tests. ---------------------------------------------
# Clean suite passes; an injected corruption makes the command fail.
"$CLI" selftest | grep -q 'selftest:'
refuse "injected sha256 corruption not detected" \
  env TRE_SELFTEST_FAULT=sha256 "$CLI" selftest
refuse "unknown fault name should fail closed" \
  env TRE_SELFTEST_FAULT=not-a-kat "$CLI" selftest

# ---- Every command on each curve. ------------------------------------
# $1 = the keygen flags that pick the curve, $2 = the suffix of the
# server, user and update files made above for it.
each_command() {
  KG=$1
  S=$2
  T="2031-05-05T05:05:05Z"

  # A password-sealed server key issues a round's update.
  "$CLI" server-keygen $KG --key "pw$S.key" --pub "pw$S.pub" --password pw
  "$CLI" issue --server-key "pw$S.key" --password pw --round 7 --out "round$S.bin"
  "$CLI" verify-update --server-pub "pw$S.pub" --update "round$S.bin" \
    | grep -q '"round:7": VALID'

  # tred serves the issued update: a single-tag fetch returns its bytes,
  # and a tag it does not have fails after one attempt.
  start_daemon "tred$S" "$TRED" --pub "server$S.pub" --updates "update$S.bin"
  TRED_PORT=$PORT
  "$CLI" fetch --server-pub "server$S.pub" --remote "127.0.0.1:$TRED_PORT" \
    --tag "$T" --out "fetched$S.bin" | grep -q 'fetched and VERIFIED'
  cmp "update$S.bin" "fetched$S.bin"
  refuse "fetched a tag no daemon has" "$CLI" fetch --server-pub "server$S.pub" \
    --remote "127.0.0.1:$TRED_PORT" --tag "2031-01-01T00:00:00Z" --attempts 1 \
    --out missing.bin

  # serve issues past --tags and carries pre-issued --updates. Catch-up
  # pages its archive one update at a time, verifies every page as one
  # batch and keeps only the window; the fetched envelopes must be
  # bit-identical to locally issued ones.
  "$CLI" issue --server-key "server$S.key" --tag "2005-06-06T09:03Z" --out "pre$S.bin"
  start_daemon "serve$S" "$CLI" serve --pub "server$S.pub" \
    --server-key "server$S.key" \
    --tags "2005-06-06T09:00Z,2005-06-06T09:01Z,2005-06-06T09:02Z" \
    --updates "pre$S.bin"
  mkdir "catchup$S"
  "$CLI" fetch --server-pub "server$S.pub" \
    --remote "127.0.0.1:$PORT,127.0.0.1:$TRED_PORT" --page 1 \
    --from "2005-06-06T09:01Z" --to "2005-06-06T09:03Z" --out-dir "catchup$S" \
    | grep -q '3 updates fetched and VERIFIED'
  stop_daemons
  test ! -f "catchup$S/update-000003.bin"  # 09:00Z lies outside the window
  "$CLI" issue --server-key "server$S.key" --tag "2005-06-06T09:01Z" --out "i1$S.bin"
  "$CLI" issue --server-key "server$S.key" --tag "2005-06-06T09:02Z" --out "i2$S.bin"
  cmp "catchup$S/update-000000.bin" "i1$S.bin"
  cmp "catchup$S/update-000001.bin" "i2$S.bin"
  cmp "catchup$S/update-000002.bin" "pre$S.bin"
  "$CLI" verify-update --server-pub "server$S.pub" \
    --update "catchup$S/update-000000.bin" >/dev/null

  # The server never pre-discloses: serve refuses a future --tags instant.
  refuse_with "FUTURE instant" \
    timeout 10 "$CLI" serve --server-key "server$S.key" --tags "2999-01-01T00:00Z" \
    --port 0

  # 2-of-3 beacons, set up by DKG and by a dealer with sealed shares.
  beacon dkg "" ""
  beacon dealer "--dealer 1" "--password bpw"

  # The time-lock lane under the react flavour.
  "$CLI" encrypt --user-pub "user$S.pub" --server-pub "server$S.pub" --tag "$T" \
    --in msg.txt --out "ct-react-hybrid$S.bin" --mode react \
    --fallback 300 --fallback-modulus-bits 256
  "$CLI" solve --in "ct-react-hybrid$S.bin" --out "out-react-hybrid$S.txt"
  cmp msg.txt "out-react-hybrid$S.txt"

  refuse "server-keygen took an unknown --backend" \
    "$CLI" server-keygen --backend nope --key x.key --pub x.pub
  refuse "issue took an unknown --backend" "$CLI" issue --backend nope \
    --server-key "server$S.key" --tag T --out x.bin
  refuse "issue took --tag and --round together" "$CLI" issue \
    --server-key "server$S.key" --tag T --round 1 --out x.bin
}

# beacon NAME SETUP_FLAGS PASSWORD_FLAGS: a 2-of-3 beacon on the curve of
# $KG. Each node serves its partial for round 42, fetch --threshold 2
# aggregates an update that verifies under the group key, and a
# --threshold that is not the key's t is refused.
beacon() {
  B="beacon-$1$S"
  "$CLI" threshold-setup $KG --n 3 --t 2 --out-prefix "$B" $2 $3 >/dev/null
  remotes=""
  for i in 1 2 3; do
    "$CLI" issue-partial --share "$B-share-$i.key" --tkey "$B.tkey" $3 \
      --round 42 --out "$B-partial-$i.bin" >/dev/null
    start_daemon "$B-node-$i" "$CLI" serve --pub "$B.pub" \
      --partials "$B-partial-$i.bin"
    remotes="$remotes${remotes:+,}127.0.0.1:$PORT"
  done
  "$CLI" fetch --threshold 2 --tkey "$B.tkey" --remote "$remotes" --round 42 \
    --out "$B-agg.bin" | grep -q 'aggregated from 2 partials and VERIFIED'
  "$CLI" verify-update --server-pub "$B.pub" --update "$B-agg.bin" \
    | grep -q '"round:42": VALID'
  refuse "fetch --threshold 3 took a 2-of-3 key" "$CLI" fetch --threshold 3 \
    --tkey "$B.tkey" --remote "$remotes" --round 42 --out x.bin
  stop_daemons
}

each_command "--set tre-toy-96" ""
each_command "--backend bls381" "381"

refuse "an unknown command succeeded" "$CLI" frobnicate

# ---- Numeric options are parsed against their ranges. -----------------
# Each fails at once, before any socket opens, with an error naming the
# option.
refuse_with --port timeout 10 "$TRED" --pub server.pub --port 65536
refuse_with --idle-timeout-ms timeout 10 "$TRED" --pub server.pub \
  --idle-timeout-ms 9223372036854775808
refuse_with --page "$CLI" fetch --server-pub server.pub --remote 127.0.0.1:1 \
  --page 0 --from "2005-06-06T09:01Z" --to "2005-06-06T09:03Z" --out-dir catchup
refuse_with --timeout-ms "$CLI" fetch --server-pub server.pub \
  --remote 127.0.0.1:1 --timeout-ms 4294967297 --tag T --out x.bin

echo "cli roundtrip ok"

#!/usr/bin/env bash
# Knob audit: who sets this config field?
#
#   bash ci/knob_audit.sh
#
# Lists each field of a `struct *Config` / `struct *Options` under src/ that
# nothing outside its declaring header assigns ("never set"), or that only
# tests assign ("tests only"). Exits 1 when a field outside ALLOWED below is
# never set: a settable value that no caller uses should be a named constant.
#
# It matches by field name only, so check two kinds of field by hand:
# - it misses a field when a same-named field of another struct is set;
# - it lists a field set only by positional aggregate initialization
#   (`LinkConfig{1e9, kMillisecond, 0.0}` leaves LinkConfig.jitter_frac
#   reading "never set").
set -uo pipefail
cd "$(dirname "$0")/.."

# Topology, transfer and link fields that no caller sets today. They describe
# the network a deployment would configure, so they stay settable.
ALLOWED="
ClientConfig.lan_net
ClientAgentConfig.wan_net
ClientAgentConfig.lan_net
ClientAgentConfig.staging_net
ExperimentConfig.lan_bandwidth_bps
ExperimentConfig.lan_latency
ExperimentConfig.wan_depot_count
ExperimentConfig.lan_depot_count
ExperimentConfig.depot_disk_bps
LinkConfig.jitter_frac
"

status=0
for h in $(grep -rlE '^ *struct [A-Za-z0-9]*(Config|Options) \{' src | sort); do
  fields=$(awk '/^ *struct [A-Za-z0-9]*(Config|Options) \{/ {s = $2; d = 1; next}
       s != "" {b = d; d += gsub(/\{/, "{") - gsub(/\}/, "}"); if (d <= 0) {s = ""; next}
         if (b == 1 && /^ +[A-Za-z_][A-Za-z0-9_:<>,* ]* [a-z_][a-z0-9_]* *(=[^;]*|\{[^;]*\})?;/) {
           sub(/ *(=[^;]*|\{[^;]*\})?;.*/, ""); n = split($0, w, " "); print s, w[n]}}' "$h")
  while read -r struct field; do
    [ -n "$field" ] || continue
    users=$(grep -rlE "(\.|->)$field((\.[a-z_]+)* *(=[^=]|\{)|\.(push_back|emplace_back|insert)\()" \
              src bench examples benchmark tests | grep -vx "$h")
    if [ -z "$users" ]; then
      echo "$h $struct.$field: never set"
      if ! grep -qx "$struct.$field" <<<"$ALLOWED"; then status=1; fi
    elif ! grep -qv '^tests/' <<<"$users"; then
      echo "$h $struct.$field: tests only"
    fi
  done <<<"$fields"
done
if [ "$status" -ne 0 ]; then
  echo "knob_audit: a field above is never set and not in ALLOWED;" \
       "make it a named constant or give it a caller" >&2
fi
exit "$status"

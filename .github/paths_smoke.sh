# paths_smoke <grid flags...>: sweep the grid once per route through a
# window — message/w=1, columnar/w=1, message/w=4, columnar/w=4 — and diff
# every leg's table and JSONL against the first. Both settings are pure
# performance knobs of the one window core (DESIGN.md §2), so every byte must
# match. Keep a non-columnar algorithm in the grid, so the gate that routes it
# to messages runs beside the columns. Sourced by the CI steps; GO_RUN
# (default "go run") lets the race job pass "go run -race".
paths_smoke() {
  local run="${GO_RUN:-go run}" columnar workers out
  for workers in 1 4; do
    for columnar in false true; do
      out=/tmp/paths-$columnar-$workers
      $run ./cmd/sweep "$@" -columnar=$columnar -shard-workers $workers \
        -out $out.jsonl -checkpoint off > $out.table || return 1
      diff /tmp/paths-false-1.table $out.table || return 1
      diff /tmp/paths-false-1.jsonl $out.jsonl || return 1
    done
  done
}

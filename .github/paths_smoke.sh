# paths_smoke <grid flags...>: sweep the grid once inline (w=1) and once at
# four shard workers (w=4), and diff the second leg's table and JSONL against
# the first. The worker count is a pure performance knob of the one window
# core (DESIGN.md §2), so every byte must match. Which representation a
# window takes, messages or columns, follows from the process types; the
# message == columnar equivalence is held by the registry battery
# (TestColumnarTrialMatchesMessage), which can switch an engine to messages.
# Sourced by the CI steps; GO_RUN (default "go run") lets the race job pass
# "go run -race".
paths_smoke() {
  local run="${GO_RUN:-go run}" workers out
  for workers in 1 4; do
    out=/tmp/paths-$workers
    $run ./cmd/sweep "$@" -shard-workers $workers \
      -out $out.jsonl -checkpoint off > $out.table || return 1
    diff /tmp/paths-1.table $out.table || return 1
    diff /tmp/paths-1.jsonl $out.jsonl || return 1
  done
}

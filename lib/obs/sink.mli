(** Pluggable observability sinks.

    A sink is where a run's instrumentation goes: spans and progress
    lines as they happen ([emit]), and the aggregate {!Metrics.t} once
    at the end ([flush]). Everything that takes a {!Run_cfg.t} reports
    through the sink it carries, so redirecting a whole sweep from
    silent to stderr-progress to a JSON file is a one-field change.

    [emit] receives the run's metrics registry alongside the event, so
    sinks that render aggregate state (the JSON file sink, the serve
    daemon's per-request streams) can snapshot it live instead of
    waiting for the final flush. *)

type event =
  | Span_start of string  (** span path, fired on entry *)
  | Span_end of string * int  (** span path and wall nanoseconds *)
  | Progress of string  (** human-readable progress line *)

type t = {
  name : string;  (** for error messages and [pp] *)
  emit : Metrics.t -> event -> unit;
  flush : Metrics.t -> unit;
}

val null : t
(** Drops everything — the default sink; instrumented code pays only
    the counter increments. *)

val stderr_progress : t
(** Prints [Progress] lines and span completions to stderr as they
    happen, and a metrics dump on flush. *)

val json_file : string -> t
(** A {e live} metrics file: every event — and the final [flush] —
    rewrites [path] with {!Metrics.to_json} (pretty, trailing newline)
    of the current snapshot. Each write goes to [path ^ ".tmp"], is
    flushed, and is renamed over [path], so a reader tailing the file
    mid-run never observes a torn or buffered partial document. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] writes [content ^ "\n"] to [path] via
    the flush-then-rename protocol {!json_file} uses. A failed write
    raises its [Sys_error] without renaming, leaving [path] as it was
    (the temp file may remain). *)

val tee : t -> t -> t
(** Both sinks see every event and every flush, left first. *)

val of_outputs : ?progress:bool -> ?metrics_out:string -> unit -> t
(** The one constructor CLI front-ends need: [stderr_progress] when
    [progress], composed with [json_file metrics_out] when a path is
    given, {!null} otherwise. *)

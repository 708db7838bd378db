(** In-memory spans recorded by the benchmark around its calls into
    the program, analysed after the run.

    A span has a name, a start, a stop and the span that was open when
    it started. Calls too frequent to record one by one (a decoder is
    evaluated millions of times per sweep) go through a {!leaf}
    counter instead: calls and total time per name, with the time also
    charged to the enclosing span so its self time stays exact.

    One [t] records one thread of control; the serve workload keeps one
    per client connection. *)

type span = {
  id : int;
  parent : int option;  (** [None] for a top-level span *)
  name : string;
  start_ns : int;
  stop_ns : int;
  leaf_ns : int;  (** leaf-call time charged while this span was innermost *)
}

type leaf = private { leaf_name : string; mutable calls : int; mutable ns : int }
type t

val create : now:(unit -> int) -> unit -> t
(** A recorder reading nanosecond timestamps from [now]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span nested in the innermost open one. The span
    is recorded even when [f] raises. *)

val leaf_counter : t -> string -> leaf
val leaf : t -> leaf -> ('a -> 'b) -> 'a -> 'b
(** [leaf t l f x] is [f x], timed into [l] and into the innermost open
    span's [leaf_ns]. *)

val leaves : t -> leaf list
val spans : t -> span list
(** Closed spans in the order they ended. *)

val total_ns : name:string -> span list -> int

val self_ns : name:string -> span list -> int
(** Summed self time of the spans named [name]: each one's duration
    minus the part covered by its child spans and by leaf calls made
    while it was innermost. *)

val count : name:string -> span list -> int

val unaccounted_ns : wall_ns:int -> span list -> int
(** [wall_ns] minus the summed durations of the top-level spans: the
    time of a traced phase that no span explains. *)

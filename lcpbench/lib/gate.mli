(** The correctness gate: operations attempted and failed.

    Each operation (a sweep, a sampling run, a request) is gated by a
    list of checks on its output; it counts as failed when any check
    does, however many. *)

type check = string option
(** [None] when the check passed, else what went wrong. *)

val holds : string -> bool -> check
val eq : string -> expected:int -> int -> check

type t

val create : unit -> t
val op : t -> string -> check list -> unit
(** Record one attempted operation named [what] with its checks. *)

val attempted : t -> int
val failed : t -> int
val problems : t -> string list
(** One line per failed check, prefixed with its operation. *)

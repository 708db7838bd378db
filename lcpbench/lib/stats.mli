(** Order statistics over raw samples (no histogram buckets, so a
    reported percentile is always one of the measured values). *)

val rank : pct:int -> int -> int
(** 1-based nearest rank of the [pct]-th percentile among [n] samples:
    the smallest rank with at least [pct]% of the samples at or
    below it. *)

val beyond : pct:int -> int -> int
(** Samples strictly above the [pct]-th percentile's rank. *)

val percentile :
  ?min_beyond:int -> pct:int -> float array -> (float, string) result
(** Nearest-rank percentile. Refuses (with [Error]) an empty sample
    set, and one with fewer than [min_beyond] (default 0) samples
    beyond the percentile: a p99 read off 500 samples rests on five
    values and is not reported. @raise Invalid_argument unless
    [1 <= pct <= 100]. *)

val median : float array -> float
(** [percentile ~pct:50]. @raise Invalid_argument on no samples. *)

val median_of_runs : int -> (unit -> float) -> float
(** Run a measurement [k] times and keep the median. *)

(** Deterministic pseudo-random numbers (SplitMix64).

    Benchmarks and property tests need reproducible workloads that do
    not depend on the global [Random] state; each generator is an
    independent, seedable stream. *)

type t

val create : seed:int -> t
(** A fresh stream.  Equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val string : t -> len:int -> string
(** Random string of printable ASCII of length [len]. *)

val zipf : t -> n:int -> theta:float -> int
(** Zipf-distributed rank in [\[0, n)] with skew [theta] (0 = uniform);
    used for skewed key popularity in benchmark workloads. *)

(** One retry policy for the whole tree: exponential backoff with full
    jitter and a global retry budget.

    Before this module, [Rpc.Client] had a bare exponential backoff and
    [Replica] had ad-hoc reconnect pacing; under a healing partition
    both would fire in lockstep across every client and peer — a retry
    storm exactly when the network is weakest.  Two mechanisms prevent
    that:

    - {b full jitter} (AWS-style): each delay is drawn uniformly from
      [\[0, base)], where [base] grows exponentially up to [max_s].
      Synchronized failures decorrelate instead of thundering back in
      phase.
    - {b a retry budget}: a token bucket shared by any number of
      retriers.  Each retry spends a token; when the bucket is empty
      the retry is denied and the caller fails fast, so a large fleet
      cannot multiply offered load during an outage.

    All timing uses the monotonic clock ({!Sdb_util.Mono}). *)

type policy = {
  initial_s : float;  (** first delay's base (>= 0) *)
  multiplier : float;  (** base growth per attempt (>= 1) *)
  max_s : float;  (** cap on the base *)
  jitter : bool;  (** full jitter: sample U[0, base) instead of base *)
}

val default : policy
(** 20 ms initial, doubling, capped at 1 s, jittered. *)

val validate : policy -> unit
(** Raises [Invalid_argument] on a malformed policy. *)

(** Token-bucket retry budget, shared across threads. *)
module Budget : sig
  type t

  val create : ?burst:float -> rate_per_s:float -> unit -> t
  (** [burst] (default [10. *. rate_per_s], at least 1) is the bucket
      capacity; tokens refill continuously at [rate_per_s]. *)

  val try_spend : t -> bool
  (** Take one token; [false] (retry denied) when the bucket is empty. *)

  val unlimited : t
  (** A budget that always grants (for callers that opt out). *)
end

type t
(** Mutable per-retry-sequence state: the current base delay. *)

val start : ?seed:int -> policy -> t
(** Begin a retry sequence.  [seed] fixes the jitter stream (tests);
    by default each sequence gets a distinct deterministic stream. *)

val next_s : t -> float
(** This attempt's delay in seconds (jittered if the policy says so),
    advancing the base for the next attempt. *)

val reset : t -> unit
(** Back to [initial_s] — call after a success so the next failure
    starts from a short delay again. *)

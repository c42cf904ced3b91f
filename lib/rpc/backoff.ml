module Rng = Sdb_util.Rng
module Mono = Sdb_util.Mono

type policy = {
  initial_s : float;
  multiplier : float;
  max_s : float;
  jitter : bool;
}

let default = { initial_s = 0.02; multiplier = 2.0; max_s = 1.0; jitter = true }

let validate p =
  if p.initial_s < 0.0 then invalid_arg "Backoff: initial_s < 0";
  if p.multiplier < 1.0 then invalid_arg "Backoff: multiplier < 1";
  if p.max_s < 0.0 then invalid_arg "Backoff: max_s < 0"

module Budget = struct
  type t = {
    rate_per_s : float;  (* 0 = unlimited *)
    burst : float;
    m : Sdb_check.Mu.t;
    mutable tokens : float;
    mutable last_refill : float;  (* monotonic *)
  }

  let create ?burst ~rate_per_s () =
    if rate_per_s <= 0.0 then invalid_arg "Backoff.Budget: rate_per_s <= 0";
    let burst =
      match burst with
      | Some b ->
        if b < 1.0 then invalid_arg "Backoff.Budget: burst < 1";
        b
      | None -> Float.max 1.0 (10.0 *. rate_per_s)
    in
    {
      rate_per_s;
      burst;
      m = Sdb_check.Mu.make "backoff.budget";
      tokens = burst;
      last_refill = Mono.now_s ();
    }

  let unlimited =
    {
      rate_per_s = 0.0;
      burst = 1.0;
      m = Sdb_check.Mu.make "backoff.budget.unlimited";
      tokens = 1.0;
      last_refill = 0.0;
    }

  let try_spend t =
    if t.rate_per_s <= 0.0 then true
    else
      Sdb_check.Mu.with_lock t.m (fun () ->
          let now = Mono.now_s () in
          let dt = Float.max 0.0 (now -. t.last_refill) in
          t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate_per_s));
          t.last_refill <- now;
          if t.tokens >= 1.0 then begin
            t.tokens <- t.tokens -. 1.0;
            true
          end
          else false)

end

type t = { policy : policy; rng : Rng.t; mutable base : float }

(* Distinct deterministic jitter streams per sequence: a global counter
   folded into the seed, so two peers created back to back do not draw
   identical jitter and re-synchronize their retries. *)
let seq = Atomic.make 0

let start ?seed policy =
  validate policy;
  let seed =
    match seed with
    | Some s -> s
    | None -> 0x5db_0ff + Atomic.fetch_and_add seq 1
  in
  { policy; rng = Rng.create ~seed; base = Float.min policy.initial_s policy.max_s }

let next_s t =
  let base = t.base in
  t.base <- Float.min (t.base *. t.policy.multiplier) t.policy.max_s;
  if t.policy.jitter && base > 0.0 then Rng.float t.rng base else base

let reset t = t.base <- Float.min t.policy.initial_s t.policy.max_s

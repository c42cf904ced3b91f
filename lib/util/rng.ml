type t = {
  mutable state : int64;
  (* Per-generator memo of the last Zipf parameters (see [zipf]): a
     generator is owned by one thread, so unlike a global cache this
     needs no lock, and a workload draws from one (n, theta). *)
  mutable zipf_memo : (int * float * (float * float * float)) option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed); zipf_memo = None }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits avoids modulo bias. *)
  let mask = max_int in
  let rec go () =
    let v = Int64.to_int (next_int64 t) land mask in
    let r = v mod bound in
    if v - r > mask - bound + 1 then go () else r
  in
  go ()

let float t bound =
  let v = Int64.to_int (next_int64 t) land max_int in
  bound *. (float_of_int v /. float_of_int max_int)

let string t ~len =
  String.init len (fun _ -> Char.chr (33 + int t 94))

(* Zipf via the classic Gray et al. rejection-free approximation: compute
   the generalized harmonic number once per (n, theta) and invert the CDF
   with the two-point shortcut.  Memoized per generator because benches
   draw millions. *)
let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if theta < 0.0 || theta >= 1.0 then invalid_arg "Rng.zipf: theta in [0,1)";
  if theta = 0.0 then int t n
  else begin
    let zetan, eta, alpha =
      match t.zipf_memo with
      | Some (n', theta', v) when n' = n && theta' = theta -> v
      | _ ->
        let zeta m =
          let acc = ref 0.0 in
          for i = 1 to m do
            acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
          done;
          !acc
        in
        let zetan = zeta n in
        let zeta2 = zeta 2 in
        let alpha = 1.0 /. (1.0 -. theta) in
        let eta =
          (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
          /. (1.0 -. (zeta2 /. zetan))
        in
        t.zipf_memo <- Some (n, theta, (zetan, eta, alpha));
        (zetan, eta, alpha)
    in
    let u = float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let r =
        int_of_float (float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha)
      in
      if r >= n then n - 1 else if r < 0 then 0 else r
  end

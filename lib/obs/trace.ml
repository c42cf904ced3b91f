type span = {
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * string) list;
}

type sink = span -> unit

(* The sink is read on every potential span: keep it an Atomic so the
   hot path is one load, and writers need no lock. *)
let current : sink option Atomic.t = Atomic.make None

let set_sink s = Atomic.set current s
let active () = Atomic.get current <> None

(* Per-thread request context: a request-handling thread tags itself
   once, and every span it emits while handling that request carries a
   ("req", id) attribute — that is what lets one slow RPC be decomposed
   into its rpc/verify/join/flush/apply phases after the fact.  The
   table is consulted only when a sink is installed. *)
module Context = struct
  let mu = Sdb_check.Mu.make "obs.trace.context"
  let tbl : (int, string) Hashtbl.t = Hashtbl.create 32

  let self () = Thread.id (Thread.self ())

  let get () = Sdb_check.Mu.with_lock mu (fun () -> Hashtbl.find_opt tbl (self ()))

  let set = function
    | Some id -> Sdb_check.Mu.with_lock mu (fun () -> Hashtbl.replace tbl (self ()) id)
    | None -> Sdb_check.Mu.with_lock mu (fun () -> Hashtbl.remove tbl (self ()))
end

let request () = if active () then Context.get () else None

let with_request id f =
  if not (active ()) then f ()
  else begin
    let prev = Context.get () in
    Context.set (Some id);
    Fun.protect ~finally:(fun () -> Context.set prev) f
  end

let emit span =
  match Atomic.get current with
  | None -> ()
  | Some sink ->
    (* The wall clock can step backward (NTP) between a span's start and
       end stamps; a negative duration is noise for every sink and would
       dodge slow-span thresholds, so clamp here — the one choke point
       all spans pass through. *)
    let span = if span.dur_s < 0.0 then { span with dur_s = 0.0 } else span in
    let span =
      if List.mem_assoc "req" span.attrs then span
      else
        match Context.get () with
        | None -> span
        | Some id -> { span with attrs = ("req", id) :: span.attrs }
    in
    sink span

let span ?(attrs = []) name ~start_s ~dur_s = emit { name; start_s; dur_s; attrs }

let with_span ?(attrs = []) name f =
  if not (active ()) then f ()
  else begin
    let start_s = Unix.gettimeofday () in
    match f () with
    | v ->
      emit { name; start_s; dur_s = Unix.gettimeofday () -. start_s; attrs };
      v
    | exception e ->
      emit
        {
          name;
          start_s;
          dur_s = Unix.gettimeofday () -. start_s;
          attrs = attrs @ [ ("error", Printexc.to_string e) ];
        };
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let tee sinks s = List.iter (fun sink -> sink s) sinks

let json_escape v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let jsonl_sink oc =
  let m = Sdb_check.Mu.make "obs.trace.sink" in
  fun s ->
    let attrs =
      String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
           s.attrs)
    in
    Sdb_check.Mu.lock m;
    Printf.fprintf oc "{\"name\":\"%s\",\"start_s\":%.6f,\"dur_s\":%.9f,\"attrs\":{%s}}\n"
      (json_escape s.name) s.start_s s.dur_s attrs;
    flush oc;
    Sdb_check.Mu.unlock m

module Ring = struct
  type t = {
    mutex : Sdb_check.Mu.t;
    buf : span option array;
    mutable next : int;  (* total spans ever written *)
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity must be positive";
    {
      mutex = Sdb_check.Mu.make "obs.trace.ring";
      buf = Array.make capacity None;
      next = 0;
    }

  let sink t s =
    Sdb_check.Mu.with_lock t.mutex (fun () ->
        t.buf.(t.next mod Array.length t.buf) <- Some s;
        t.next <- t.next + 1)

  let contents t =
    Sdb_check.Mu.with_lock t.mutex (fun () ->
        let cap = Array.length t.buf in
        let count = min t.next cap in
        let first = t.next - count in
        List.init count (fun i ->
            match t.buf.((first + i) mod cap) with
            | Some s -> s
            | None -> assert false))

  let clear t =
    Sdb_check.Mu.with_lock t.mutex (fun () ->
        Array.fill t.buf 0 (Array.length t.buf) None;
        t.next <- 0)

  let recent ?(min_dur_s = 0.0) ~max_n t =
    if max_n <= 0 then []
    else
      Sdb_check.Mu.with_lock t.mutex (fun () ->
          let cap = Array.length t.buf in
          let count = min t.next cap in
          let rec go i acc taken =
            if i < 0 || taken >= max_n then List.rev acc
            else
              match t.buf.((t.next - count + i) mod cap) with
              | Some s when s.dur_s >= min_dur_s ->
                go (i - 1) (s :: acc) (taken + 1)
              | Some _ | None -> go (i - 1) acc taken
          in
          (* Walk newest to oldest so [max_n] keeps the most recent
             matches; the accumulator is built oldest-at-head, so the
             [List.rev] at termination yields newest-first. *)
          go (count - 1) [] 0)
end

(* The process-global slow-span ring: one ring (installed by the
   server) that keeps the last spans slower than a threshold, so "what
   was slow recently?" is answerable over RPC without a tracing
   pipeline.  The sink returned by [install] still has to be put in
   place with {!set_sink} (composing with others via {!tee}). *)
module Slow = struct
  let installed : (Ring.t * float) option Atomic.t = Atomic.make None

  let install ~capacity ~threshold_s =
    let r = Ring.create ~capacity in
    Atomic.set installed (Some (r, threshold_s));
    fun s -> if s.dur_s >= threshold_s then Ring.sink r s

  let recent ?min_dur_s ~max_n () =
    match Atomic.get installed with
    | None -> []
    | Some (r, _) -> Ring.recent ?min_dur_s ~max_n r
end

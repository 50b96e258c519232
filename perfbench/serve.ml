(* The [serve-mix] workload: one generator thread sends into an
   in-process [Service.create ~shards:1 ~workers:1]. Every request goes
   through the binary wire ([Binary.encode_request] then
   [decode_request]) before [submit], and every response through
   [response_to_string].

   About 70% of arrivals are stateless (LP (3) sparse and dense, LP (1)
   cut sparse, Enforce, Check on n=48 instances, SND with an affordable
   budget on n=10), half from a small hot pool and half unique; about 30%
   are session traffic ([mutate] or [resolve]) over a fixed population of
   n=64 sessions opened during set-up. Two rungs: [nominal], open loop
   at an absolute rate below the service's saturation, and [saturation],
   a closed loop that keeps a few requests in flight, so the service is
   never idle and its queue stays short. The saturation rung measures the
   rate the service sustains. (An open-loop rung above saturation does
   not: there the generator's own per-request work and allocation grow
   with the offered rate and slow the service down with them, so the
   figure follows the offered rate and the host's noise.) No deadlines;
   nothing is shed. The saturation rung's goodput is in reference seconds
   (see [Common.probe]): the service's domain runs on one CPU, the
   generator on another, and the generator probes the service's CPU
   between segments.

   Every answer is checked after the run against references computed
   outside any timed window: LP (3) optima from the dense kernel,
   equilibrium flags, MST weights, and session states replayed from the
   deltas the service acknowledged. *)

open Common
module Service = Repro_service.Service
module Wire = Repro_service.Service_wire
module Instances = Repro_core.Instances
module Serial = Repro_core.Serial.Float
module Gm = Repro_game.Game.Float_game
module G = Gm.G
module Dense = Repro_core.Sne_lp.Float
module Obs = Repro_obs.Obs
module Prng = Repro_util.Prng

type config = {
  nominal_rps : float;
  saturation_rps : float;
      (** sizes the saturation rung: it sends this many requests per
          second of its share of [--seconds], however long they take *)
  segments : int;  (** the saturation rung's segments, probed between *)
  nominal_share : float;  (** share of [--seconds] spent on the nominal rung *)
  n : int;  (** stateless instance size *)
  n_snd : int;
  n_session : int;
  sessions : int;
  hot : int;  (** hot-pool size, per pool *)
  serial_ops : int;  (** closed-loop ops per traced attribution pass *)
}

let default =
  {
    nominal_rps = 500.0;
    saturation_rps = 1200.0;
    segments = 30;
    nominal_share = 0.5;
    n = 48;
    n_snd = 10;
    n_session = 64;
    sessions = 16;
    hot = 8;
    serial_ops = 400;
  }

let tiny =
  {
    nominal_rps = 40.0;
    saturation_rps = 120.0;
    segments = 2;
    nominal_share = 0.5;
    n = 12;
    n_snd = 7;
    n_session = 14;
    sessions = 3;
    hot = 3;
    serial_ops = 40;
  }

type cls = Lp3_dense | Lp3_sparse | Cut_sparse | Enforce | Check | Snd | Mutate | Resolve

let cls_name = function
  | Lp3_dense -> "lp3-dense"
  | Lp3_sparse -> "lp3-sparse"
  | Cut_sparse -> "cut-sparse"
  | Enforce -> "enforce"
  | Check -> "check"
  | Snd -> "snd"
  | Mutate -> "mutate"
  | Resolve -> "resolve"

(* Arrival mix, per deck of 100 arrivals. Each deck holds exactly these
   counts in a seeded order (stratified, so the mix does not drift
   between seeds); within each kind, hot-pool and unique instances
   alternate. *)
let mix =
  [
    (12, Lp3_dense);
    (12, Lp3_sparse);
    (12, Cut_sparse);
    (12, Enforce);
    (12, Check);
    (10, Snd);
    (15, Mutate);
    (15, Resolve);
  ]

let deck = Array.of_list (List.concat_map (fun (k, cls) -> List.init k (fun _ -> cls)) mix)

type op = {
  at : float;  (** scheduled send, seconds after the rung starts *)
  cls : cls;
  target : int;  (** payload index (stateless) or session index *)
  delta : Serial.Delta.t option;  (** [Mutate] only *)
  budget : float;  (** [Snd] only *)
}

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type inputs = {
  payloads : string array;
  warm_up : op list;  (** one op per stateless kind, on the hot pools *)
  session_payloads : string array;
  nominal : op array;
  saturation : op array;
  nominal_s : float;
  saturation_s : float;
}

let instance ~n ~seed = Instances.random ~dist:(Instances.Integer 10) ~n ~extra:n ~seed ()

let payload (inst : Instances.t) =
  Serial.to_string
    {
      Serial.graph = inst.Instances.graph;
      root = inst.Instances.root;
      tree_edge_ids = None;
      subsidy = [];
      budget = None;
    }

(* The schedule is a pure function of the seed: payload seeds, arrival
   times, kinds and deltas all come from one generator. *)
let make_inputs cfg ~seed ~seconds =
  let rng = Prng.create (7919 * seed) in
  let fresh n = instance ~n ~seed:(1 + Prng.int rng 1_000_000_000) in
  let payloads = ref [] and count = ref 0 in
  (* An affordable SND budget: fully subsidizing the MST costs its
     weight, so the MST is enforceable within it and is the optimal
     design. *)
  let budgets = Hashtbl.create 64 in
  let add inst =
    payloads := payload inst :: !payloads;
    incr count;
    Hashtbl.replace budgets (!count - 1) (G.Tree.total_weight (Instances.mst_tree inst));
    !count - 1
  in
  let hot = Array.init cfg.hot (fun _ -> add (fresh cfg.n)) in
  let hot_snd = Array.init cfg.hot (fun _ -> add (fresh cfg.n_snd)) in
  let session_payloads = Array.init cfg.sessions (fun _ -> payload (fresh cfg.n_session)) in
  let session_edges =
    Array.map (fun p -> G.n_edges (Serial.of_string p).Serial.graph) session_payloads
  in
  let op ?delta ?(budget = 0.0) at cls target = { at; cls; target; delta; budget } in
  let from_hot = Hashtbl.create 8 in
  let stateless at cls =
    let pool, n = if cls = Snd then (hot_snd, cfg.n_snd) else (hot, cfg.n) in
    let hot_turn = not (Option.value ~default:false (Hashtbl.find_opt from_hot cls)) in
    Hashtbl.replace from_hot cls hot_turn;
    let target = if hot_turn then pool.(Prng.int rng (Array.length pool)) else add (fresh n) in
    op ~budget:(Hashtbl.find budgets target) at cls target
  in
  let cards = Array.copy deck and next = ref (Array.length deck) in
  let draw at =
    if !next = Array.length cards then begin
      Prng.shuffle rng cards;
      next := 0
    end;
    incr next;
    match cards.(!next - 1) with
    | Mutate ->
        let s = Prng.int rng cfg.sessions in
        let edge = Prng.int rng session_edges.(s) in
        let weight = float_of_int (1 + Prng.int rng 10) in
        op ~delta:(Serial.Delta.Edge_weight { edge; weight }) at Mutate s
    | Resolve -> op at Resolve (Prng.int rng cfg.sessions)
    | cls -> stateless at cls
  in
  let warm_up =
    List.map
      (fun cls ->
        let target = if cls = Snd then hot_snd.(0) else hot.(0) in
        op ~budget:(Hashtbl.find budgets target) 0.0 cls target)
      [ Lp3_dense; Lp3_sparse; Cut_sparse; Enforce; Check; Snd ]
  in
  let schedule rate duration =
    let rec go t acc =
      let t = t -. (log (1.0 -. Prng.float rng 1.0) /. rate) in
      if t >= duration then Array.of_list (List.rev acc) else go t (draw t :: acc)
    in
    go 0.0 []
  in
  let nominal_s = seconds *. cfg.nominal_share in
  let saturation_s = seconds -. nominal_s in
  let nominal = schedule cfg.nominal_rps nominal_s in
  let saturation =
    Array.init (truncate (Float.round (cfg.saturation_rps *. saturation_s))) (fun _ -> draw 0.0)
  in
  {
    payloads = Array.of_list (List.rev !payloads);
    warm_up;
    session_payloads;
    nominal;
    saturation;
    nominal_s;
    saturation_s;
  }

(* ------------------------------------------------------------------ *)
(* Service set-up                                                      *)
(* ------------------------------------------------------------------ *)

let sne meth backend = Service.Sne { meth; backend; max_rounds = 500 }

let request ~inputs ~handles i op =
  let mk kind payload =
    { Service.id = string_of_int i; kind; payload; deadline_ms = None; priority = 0; stream = false }
  in
  let p () = inputs.payloads.(op.target) in
  match op.cls with
  | Lp3_dense -> mk (sne `Lp3 Service.Dense) (p ())
  | Lp3_sparse -> mk (sne `Lp3 Service.Sparse) (p ())
  | Cut_sparse -> mk (sne `Cut Service.Sparse) (p ())
  | Enforce -> mk Service.Enforce (p ())
  | Check -> mk Service.Check (p ())
  | Snd -> mk (Service.Snd { budget = op.budget }) (p ())
  | Mutate ->
      mk
        (Service.Session_mutate { session = handles.(op.target) })
        (Serial.Delta.to_string (Option.get op.delta))
  | Resolve -> mk (Service.Session_resolve { session = handles.(op.target) }) ""

type env = { svc : Service.t; handles : string array }

let await_ok svc req =
  match (Service.await svc (Service.submit svc req)).Service.result with
  | Ok o -> o
  | Error e -> failwith ("perfbench: set-up request failed: " ^ Wire.reason_slug e)

(* Start a service, open the session population (one warm resolve each)
   and run every stateless kind once on the hot pools. The queue limit is
   far above any backlog a run builds, so nothing is shed. *)
let start inputs =
  (* The service's one domain inherits the last CPU and keeps it; the
     generator thread goes back to the first. The probes between the
     saturation rung's segments then run where the service runs. *)
  run_on `Last;
  let svc = Service.create ~shards:1 ~workers:1 ~queue_limit:1_000_000 () in
  run_on `First;
  let handles =
    Array.mapi
      (fun i payload ->
        let req =
          {
            Service.id = "open" ^ string_of_int i;
            kind = Service.Session_open { backend = Service.Sparse; max_rounds = 500 };
            payload;
            deadline_ms = None;
            priority = 0;
            stream = false;
          }
        in
        match await_ok svc req with
        | Service.Opened { session; _ } -> session
        | _ -> failwith "perfbench: unexpected open outcome")
      inputs.session_payloads
  in
  let resolves =
    List.init (Array.length handles) (fun s ->
        { at = 0.0; cls = Resolve; target = s; delta = None; budget = 0.0 })
  in
  List.iter
    (fun op -> ignore (await_ok svc (request ~inputs ~handles 0 op)))
    (resolves @ inputs.warm_up);
  { svc; handles }

(* ------------------------------------------------------------------ *)
(* Sending and collecting                                              *)
(* ------------------------------------------------------------------ *)

type record = {
  op : op;
  resp : Service.response;
  latency_ms : float;  (** scheduled send to encoded response *)
  lag_s : float;  (** generator lateness at this send *)
  depth : int;  (** [Service.pending] at this send *)
  decode_us : float;
  encode_us : float;  (** request encode plus response encode *)
}

type in_flight = {
  k : int;
  target : float;
  t_send : float;
  depth : int;
  enc : float;
  dec : float;
  t_sub : float;
  ticket : Service.ticket;
}

(* Open loop: sleep to each scheduled instant and send regardless of how
   far behind the service is. Responses are taken oldest first as they
   complete, in the generator's idle time, so finished tickets (and the
   payloads they hold) do not pile up. Returns the records and the span
   from the first scheduled send to the last completion. *)
let run_open env inputs ~first ops =
  let records = Array.make (Array.length ops) None in
  let pending = Queue.create () in
  let t0 = now () +. 0.002 in
  let finish = ref t0 in
  let collect p resp =
    let r0 = now () in
    ignore (Sys.opaque_identity (Wire.response_to_string resp));
    let r1 = now () in
    let done_at = p.t_sub +. (resp.Service.elapsed_ms /. 1e3) in
    if done_at > !finish then finish := done_at;
    records.(p.k) <-
      Some
        {
          op = ops.(p.k);
          resp;
          latency_ms = 1e3 *. (done_at +. (r1 -. r0) -. p.target);
          lag_s = p.t_send -. p.target;
          depth = p.depth;
          decode_us = 1e6 *. p.dec;
          encode_us = 1e6 *. (p.enc +. (r1 -. r0));
        }
  in
  let rec drain () =
    match Queue.peek_opt pending with
    | None -> ()
    | Some p -> (
        match Service.poll_response env.svc p.ticket with
        | None -> ()
        | Some resp ->
            ignore (Queue.pop pending);
            collect p resp;
            drain ())
  in
  Array.iteri
    (fun k op ->
      drain ();
      let target = t0 +. op.at in
      let d = target -. now () in
      if d > 0.0 then Unix.sleepf d;
      let t_send = now () in
      let depth = Service.pending env.svc in
      let req = request ~inputs ~handles:env.handles (first + k) op in
      let e0 = now () in
      let frame = Wire.Binary.encode_request req in
      let e1 = now () in
      let req =
        match Wire.Binary.decode_request frame with
        | Ok r -> r
        | Error e -> failwith ("perfbench: wire round trip failed: " ^ e)
      in
      let t_sub = now () in
      let ticket = Service.submit env.svc req in
      Queue.push { k; target; t_send; depth; enc = e1 -. e0; dec = t_sub -. e1; t_sub; ticket } pending)
    ops;
  Queue.iter (fun p -> collect p (Service.await env.svc p.ticket)) pending;
  (Array.map Option.get records, !finish -. t0)

(* Requests the saturation rung keeps outstanding: enough that the
   worker always finds the next one queued, few enough that the queue
   stays short. *)
let outstanding = 4

(* Closed loop with [outstanding] requests in flight: the next request is
   sent as soon as the oldest one completes, so the worker never waits
   for work and the queue stays [outstanding] deep. The ops run in
   [segments] equal runs; between two, the loop drains and the generator
   thread probes the host's speed (see [Common.probe]) while the service
   is idle. Returns the records and, per segment, its wall (first send
   to last completion) and the mean of the probes on either side. *)
let run_closed env inputs ~first ~segments ops =
  let n = Array.length ops in
  let records = Array.make n None in
  let pending = Queue.create () in
  let send k =
    let op = ops.(k) in
    let depth = Service.pending env.svc in
    let req = request ~inputs ~handles:env.handles (first + k) op in
    let e0 = now () in
    let frame = Wire.Binary.encode_request req in
    let e1 = now () in
    let req =
      match Wire.Binary.decode_request frame with
      | Ok r -> r
      | Error e -> failwith ("perfbench: wire round trip failed: " ^ e)
    in
    let t_sub = now () in
    Queue.push (k, depth, e1 -. e0, t_sub -. e1, Service.submit env.svc req) pending
  in
  let segment lo hi =
    let t0 = now () in
    let next = ref lo in
    while !next < hi && !next < lo + outstanding do
      send !next;
      incr next
    done;
    while not (Queue.is_empty pending) do
      let k, depth, enc, dec, ticket = Queue.pop pending in
      let resp = Service.await env.svc ticket in
      if !next < hi then begin
        send !next;
        incr next
      end;
      let r0 = now () in
      ignore (Sys.opaque_identity (Wire.response_to_string resp));
      let r1 = now () in
      records.(k) <-
        Some
          {
            op = ops.(k);
            resp;
            latency_ms = resp.Service.elapsed_ms +. (1e3 *. (r1 -. r0));
            lag_s = 0.0;
            depth;
            decode_us = 1e6 *. dec;
            encode_us = 1e6 *. (enc +. (r1 -. r0));
          }
    done;
    now () -. t0
  in
  (* The probe runs on the service's CPU while the service is idle. *)
  let probe () =
    run_on `Last;
    let p = probe () in
    run_on `First;
    p
  in
  let p0 = probe () in
  let spans = Array.make segments (0, 0, 0.0, 0.0) and before = ref p0 in
  for s = 0 to segments - 1 do
    let lo = s * n / segments and hi = (s + 1) * n / segments in
    let wall = segment lo hi in
    let after = probe () in
    spans.(s) <- (lo, hi, wall, (!before +. after) /. 2.0);
    before := after
  done;
  (Array.map Option.get records, spans)

(* Closed loop, one request at a time: server-side elapsed is then pure
   service time, which is what the per-kind figures attribute. *)
let run_serial env inputs ops =
  let t0 = now () in
  let records =
    Array.mapi
      (fun k op ->
        let req = request ~inputs ~handles:env.handles k op in
        let req =
          match Wire.Binary.decode_request (Wire.Binary.encode_request req) with
          | Ok r -> r
          | Error e -> failwith ("perfbench: wire round trip failed: " ^ e)
        in
        let resp = Service.await env.svc (Service.submit env.svc req) in
        ignore (Sys.opaque_identity (Wire.response_to_string resp));
        { op; resp; latency_ms = resp.Service.elapsed_ms; lag_s = 0.0; depth = 0; decode_us = 0.0; encode_us = 0.0 })
      ops
  in
  (records, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Answer checks (after the run, untimed)                              *)
(* ------------------------------------------------------------------ *)

type reference = { mst_weight : float; lp3_cost : float; mst_equilibrium : bool }

let reference_of (inst : Serial.t) =
  let tree = Serial.target_tree inst in
  let root = inst.Serial.root in
  let spec = Gm.broadcast ~graph:inst.Serial.graph ~root in
  {
    mst_weight = G.Tree.total_weight tree;
    lp3_cost = (Dense.broadcast spec ~root tree).Dense.cost;
    mst_equilibrium = Gm.Broadcast.is_tree_equilibrium spec tree;
  }

type verdict = Pass | Failed | Wrong

(* Checks every record in submission order. Session states are replayed
   from the deltas the service acknowledged, so a resolve is compared
   with the LP (3) optimum of exactly the instance it solved. *)
let verifier inputs =
  let refs = Hashtbl.create 1024 in
  let stateless i =
    match Hashtbl.find_opt refs i with
    | Some r -> r
    | None ->
        let r = reference_of (Serial.of_string inputs.payloads.(i)) in
        Hashtbl.replace refs i r;
        r
  in
  let sessions = Array.map Serial.of_string inputs.session_payloads in
  let session_refs = Array.make (Array.length sessions) None in
  let session_ref s =
    match session_refs.(s) with
    | Some r -> r
    | None ->
        let r = reference_of sessions.(s) in
        session_refs.(s) <- Some r;
        r
  in
  fun r ->
    let op = r.op in
    match (op.cls, r.resp.Service.result) with
    | _, Error _ -> Failed
    | (Lp3_dense | Lp3_sparse | Cut_sparse), Ok (Service.Subsidy o) ->
        let want = stateless op.target in
        if o.equilibrium && close o.cost want.lp3_cost && close o.tree_weight want.mst_weight
        then Pass
        else Wrong
    | Enforce, Ok (Service.Subsidy o) ->
        let want = stateless op.target in
        if o.equilibrium && close o.tree_weight want.mst_weight
           && o.cost <= (o.tree_weight /. exp 1.0) +. 1e-9
        then Pass
        else Wrong
    | Check, Ok (Service.Equilibrium o) ->
        let want = stateless op.target in
        if o.equilibrium = want.mst_equilibrium && close o.tree_weight want.mst_weight then Pass
        else Wrong
    | Snd, Ok (Service.Design o) ->
        let want = stateless op.target in
        if close o.weight want.mst_weight && o.subsidy_cost <= op.budget +. 1e-9 then Pass
        else Wrong
    | Mutate, Ok (Service.Mutated { applied = 1; _ }) ->
        let s = op.target in
        sessions.(s) <- (Serial.Delta.apply sessions.(s) (Option.get op.delta)).Serial.Delta.inst;
        session_refs.(s) <- None;
        Pass
    | Resolve, Ok (Service.Resolved o) ->
        let want = session_ref op.target in
        if o.equilibrium && close o.cost want.lp3_cost && close o.tree_weight want.mst_weight
        then Pass
        else Wrong
    | _ -> Wrong

(* ------------------------------------------------------------------ *)
(* The workload runs                                                   *)
(* ------------------------------------------------------------------ *)

(* Set-up (inputs, service start, session opens, warm-up) is timed three
   times for a median; the last service is the one measured. Each earlier
   one is shut down before the next starts: an idle service's domain
   still takes part in every collection. *)
let setup cfg ~seed ~seconds =
  run_on `First;
  let (inputs, env), setup_s =
    timed_median ~reps:3
      ~discard:(fun (_, env) -> Service.shutdown env.svc)
      (fun () ->
        let inputs = make_inputs cfg ~seed ~seconds in
        (inputs, start inputs))
  in
  (* Start the measured part from a compact heap, whatever the discarded
     set-ups left behind. *)
  Gc.compact ();
  (inputs, env, setup_s)

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

type tally = { attempted : int; failed : int; wrong : int }

let tally verdicts =
  {
    attempted = Array.length verdicts;
    failed = count (fun v -> v <> Pass) verdicts;
    wrong = count (fun v -> v = Wrong) verdicts;
  }

let add_tally a b =
  { attempted = a.attempted + b.attempted; failed = a.failed + b.failed; wrong = a.wrong + b.wrong }

(* Goodput of the saturation rung: responses that passed per second, in
   wall seconds and in reference seconds (each segment's wall converted
   with its probes). *)
let goodput passed spans =
  let count_passed lo hi =
    let c = ref 0 in
    for k = lo to hi - 1 do
      if passed.(k) then incr c
    done;
    fi !c
  in
  let total = Array.fold_left (fun a (lo, hi, _, _) -> a +. count_passed lo hi) 0.0 spans in
  let wall = Array.fold_left (fun a (_, _, w, _) -> a +. w) 0.0 spans in
  let reference = Array.fold_left (fun a (_, _, w, p) -> a +. ref_s w p) 0.0 spans in
  (ratio total wall, ratio total reference)

(* Both rungs on one service, then every answer checked in submission
   order. Failed requests count as slower than any latency. *)
let run_rungs cfg env inputs =
  let nominal, _ = run_open env inputs ~first:0 inputs.nominal in
  (* Peak memory at nominal load, read before the checks allocate. *)
  let hwm_kb = vm_hwm_kb () in
  let saturation, spans =
    run_closed env inputs ~first:(Array.length inputs.nominal) ~segments:cfg.segments
      inputs.saturation
  in
  let verify = verifier inputs in
  let vn = Array.map verify nominal in
  let vo = Array.map verify saturation in
  let lat =
    Array.mapi (fun i r -> if vn.(i) = Pass then r.latency_ms else Float.infinity) nominal
  in
  (nominal, saturation, lat, goodput (Array.map (( = ) Pass) vo) spans, hwm_kb,
   add_tally (tally vn) (tally vo))

let context cfg ~seed inputs =
  let digest =
    Digest.to_hex
      (Digest.string (Marshal.to_string (inputs.payloads, inputs.nominal, inputs.saturation) []))
  in
  [
    ("schedule", Printf.sprintf "seed %d digest %s" seed digest);
    ( "service",
      "Service.create ~shards:1 ~workers:1, binary wire, no deadlines, queue limit 1000000" );
    ( "rungs",
      Printf.sprintf
        "nominal %g req/s open loop for %.1fs (%d requests); saturation: %d requests closed \
         loop, %d in flight"
        cfg.nominal_rps inputs.nominal_s (Array.length inputs.nominal)
        (Array.length inputs.saturation) outstanding );
    ( "instances",
      Printf.sprintf
        "stateless n=%d, snd n=%d (budget = MST weight), %d sessions n=%d (sparse); hot pools of %d; %d distinct payloads"
        cfg.n cfg.n_snd cfg.sessions cfg.n_session cfg.hot (Array.length inputs.payloads) );
  ]

(* A latency quantile as the median over [windows] consecutive slices of
   the rung: one stall (a major collection, a noisy neighbour) moves one
   slice, not the figure. *)
let windows = 10

let windowed lat q =
  let n = Array.length lat / windows in
  median (Array.init windows (fun w -> quantile (Array.sub lat (w * n) n) q))

let run_untraced cfg ~seed ~seconds =
  let inputs, env, setup_s = setup cfg ~seed ~seconds in
  let _, _, lat, (wall_goodput, goodput), hwm_kb, t =
    Fun.protect ~finally:(fun () -> Service.shutdown env.svc) (fun () -> run_rungs cfg env inputs)
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    wrong = t.wrong;
    metrics =
      [
        ("setup_s", "s", setup_s);
        ("throughput_per_s", "1/s", goodput);
        ("ok_share", "ratio", ratio (fi (t.attempted - t.failed)) (fi t.attempted));
        ("peak_rss_mb", "MB", fi hwm_kb /. 1024.0);
      ];
    context =
      context cfg ~seed inputs
      @ [
          ( "latency",
            Printf.sprintf "nominal p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (medians over %d slices)"
              (windowed lat 0.5) (windowed lat 0.9) (windowed lat 0.99) windows );
          ( "saturation",
            Printf.sprintf "goodput %.1f/s in wall seconds, %.1f/s in reference seconds"
              wall_goodput goodput );
        ];
  }

let p50_of records p = median (Array.of_list (List.filter_map p (Array.to_list records)))

(* Traced: closed-loop attribution passes over the first [serial_ops]
   nominal ops, untraced then traced on fresh services (trace overhead,
   per-kind and session figures), then both rungs traced on a third
   service (queue, cache, wire and generator figures). *)
let run_traced cfg ~seed ~seconds =
  let inputs, env_plain, setup_s = setup cfg ~seed ~seconds in
  let ops = Array.sub inputs.nominal 0 (min cfg.serial_ops (Array.length inputs.nominal)) in
  let plain, plain_wall =
    Fun.protect ~finally:(fun () -> Service.shutdown env_plain.svc) (fun () ->
        run_serial env_plain inputs ops)
  in
  Obs.reset ();
  Obs.set_enabled true;
  let env = start inputs in
  let c name = Obs.value (Obs.counter name) in
  let patched0 = c "service.session.master_patched" in
  let serial, serial_wall =
    Fun.protect ~finally:(fun () -> Service.shutdown env.svc) (fun () -> run_serial env inputs ops)
  in
  let patched = c "service.session.master_patched" - patched0 in
  let env = start inputs in
  let nominal, saturation, lat, _, _, t =
    Fun.protect ~finally:(fun () -> Service.shutdown env.svc) (fun () -> run_rungs cfg env inputs)
  in
  Obs.set_enabled false;
  let verify = verifier inputs in
  let t = add_tally t (tally (Array.map verify plain)) in
  let verify = verifier inputs in
  let t = add_tally t (tally (Array.map verify serial)) in
  (* Per-kind service time over real solves: cache hits (the hot half
     of the stateless traffic) are counted by service.cache_hit_share. *)
  let kinds ?(records = serial) clss =
    p50_of records (fun r ->
        if List.mem r.op.cls clss && not r.resp.Service.cache_hit then Some r.latency_ms else None)
  in
  let kind cls = kinds [ cls ] in
  let resolved =
    Array.to_list serial
    |> List.filter_map (fun r ->
           match r.resp.Service.result with
           | Ok (Service.Resolved o) -> Some (o.pivots, o.reused_cuts, o.fresh_cuts)
           | _ -> None)
  in
  let rsum f = fi (List.fold_left (fun a x -> a + f x) 0 resolved) in
  let n_resolved = fi (List.length resolved) in
  let reused = rsum (fun (_, r, _) -> r) and fresh = rsum (fun (_, _, f) -> f) in
  let all = Array.append nominal saturation in
  let fa f = Array.map f all in
  let elapsed = Array.map (fun r -> r.resp.Service.elapsed_ms) nominal in
  let shed =
    count (fun r -> r.resp.Service.result = Error Service.Overloaded) all
  in
  let layer =
    [
      ("lat.p50_ms", "ms", windowed lat 0.5);
      ("lat.tail_ms", "ms", windowed lat 0.99);
      ("session.resolve_p50_ms", "ms", kind Resolve);
      ("session.mutate_p50_ms", "ms", kind Mutate);
      ("session.reuse_share", "ratio", ratio reused (reused +. fresh));
      ("session.pivots_per_resolve", "count", ratio (rsum (fun (p, _, _) -> p)) n_resolved);
      ("session.patched_share", "ratio", ratio (fi patched) n_resolved);
      ("kind.lp3_p50_ms", "ms", kinds [ Lp3_dense; Lp3_sparse ]);
      ("kind.cut_p50_ms", "ms", kind Cut_sparse);
      ("kind.enforce_p50_ms", "ms", kind Enforce);
      ("kind.check_p50_ms", "ms", kind Check);
      ("kind.snd_p50_ms", "ms", kind Snd);
      ("service.elapsed_p50_ms", "ms", median elapsed);
      ("service.elapsed_p99_ms", "ms", quantile elapsed 0.99);
      ("service.queue_depth_mean", "count", mean (fa (fun r -> fi r.depth)));
      ( "service.cache_hit_share",
        "ratio",
        ratio (fi (count (fun r -> r.resp.Service.cache_hit) all)) (fi (Array.length all)) );
      ("service.shed_share", "ratio", ratio (fi shed) (fi (Array.length all)));
      ("wire.decode_us", "us", mean (fa (fun r -> r.decode_us)));
      ("wire.encode_us", "us", mean (fa (fun r -> r.encode_us)));
      ("gen.lag_ms_max", "ms", 1e3 *. Array.fold_left (fun a r -> Float.max a r.lag_s) 0.0 all);
      ("trace.overhead_share", "ratio", ratio serial_wall plain_wall -. 1.0);
    ]
  in
  let per_kind =
    List.map
      (fun cls ->
        ( "p50 " ^ cls_name cls,
          Printf.sprintf "%.3f ms traced, %.3f ms untraced (cache misses)" (kind cls)
            (kinds ~records:plain [ cls ]) ))
      [ Lp3_dense; Lp3_sparse; Cut_sparse; Enforce; Check; Snd; Mutate; Resolve ]
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    wrong = t.wrong;
    metrics = layer;
    context =
      context cfg ~seed inputs @ per_kind
      @ [ ("setup_s", Printf.sprintf "%.3f" setup_s);
          ("peak_rss_mb", Printf.sprintf "%.1f" (fi (vm_hwm_kb ()) /. 1024.0)) ];
  }

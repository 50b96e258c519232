(* Shared plumbing for the benchmark: clocks, quantiles, process
   memory, the metric record every workload fills in, and the result
   line printed last. *)

module Mclock = Repro_util.Mclock

let now = Mclock.now

(* Linear-interpolation quantile (type 7, as numpy and Python's
   [statistics.quantiles(..., method="inclusive")] compute it). *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0.0 xs
let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Answer checks compare costs to a relative 1e-6. *)
let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)
let fi = float_of_int

(* VmHWM of the calling process, in kB (0 when /proc is unavailable). *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* Host-speed probe. The host this benchmark was written on, a 2-vCPU
   virtual machine shared with other tenants, runs the same code up to a
   third slower from one minute to the next, mostly through the caches.
   Over twelve rounds of probing and solving (coefficients of variation):
   a pure arithmetic loop moved by 0.02, loops over 32 KB and over 2.5 MB
   by 0.17 and 0.07, and cut-master solves by 0.12, in step with the
   memory loops (correlation 0.9). So every timed operation is bracketed
   by this probe, which runs those two memory kernels and uses nothing
   from the repo. [ref_s wall probe] converts a wall time to reference
   seconds: the time the same work takes when the probe takes
   [probe_ref_s], about its median on that host. A change to the program
   moves the wall and not the probe; a change of the host's load moves
   both. *)
let probe_ref_s = 0.008

let probe_floats = 1 lsl 18
let probe_steps = 1 lsl 16

let probe_data =
  lazy
    (let fa = Array.init probe_floats (fun i -> float_of_int (i land 1023) *. 1e-3) in
     (* A random cyclic permutation: the walk visits every step once. *)
     let order = Array.init probe_steps Fun.id in
     let st = Random.State.make [| 7 |] in
     for i = probe_steps - 1 downto 1 do
       let j = Random.State.int st i in
       let t = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- t
     done;
     let next = Array.make probe_steps 0 in
     Array.iteri (fun i k -> next.(k) <- order.((i + 1) mod probe_steps)) order;
     (fa, next, Array.make 4096 1.0))

let probe_kernels rounds =
  let fa, next, small = Lazy.force probe_data in
  let acc = ref 0.0 and j = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to probe_steps do
      let k = next.(!j) in
      j := k;
      let idx = (k * 4) land (probe_floats - 1) in
      let v = fa.(idx) in
      acc := (!acc *. 0.999999) +. v;
      fa.(idx) <- v +. 1e-12
    done;
    for _ = 1 to 50 do
      for i = 0 to 4095 do
        let v = small.((i * 17) land 4095) in
        acc := !acc +. v;
        small.(i) <- (v *. 0.9999999) +. 1e-9
      done
    done
  done;
  !acc

(* One probe: a warm-up round, then eight timed rounds. *)
let probe () =
  ignore (Sys.opaque_identity (probe_kernels 1));
  let t0 = now () in
  ignore (Sys.opaque_identity (probe_kernels 8));
  now () -. t0

let ref_s wall probe = wall *. probe_ref_s /. probe

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin_thread : int -> bool = "perfbench_pin_thread"

(* Run the calling thread (not the process) on the first or the last CPU
   the process may use; a domain's thread inherits its creator's CPUs.
   With a single CPU there is nothing to choose. *)
let allowed = lazy (allowed_cpus ())

let run_on which =
  let cpus = Lazy.force allowed in
  let n = Array.length cpus in
  if n >= 2 then ignore (pin_thread (match which with `First -> cpus.(0) | `Last -> cpus.(n - 1)))

(* Run [f] [reps] times and return the last result with the median of
   its times in reference seconds (each rep probed just before it): set-up
   is repeated so that its reported time is a median, not one sample.
   Every result but the last goes to [discard], untimed, before the next
   rep starts. *)
let timed_median ?(discard = ignore) ~reps f =
  let times = Array.make reps 0.0 in
  let rec go i =
    let p = probe () in
    let t0 = now () in
    let v = f () in
    times.(i) <- ref_s (now () -. t0) p;
    if i = reps - 1 then v
    else begin
      discard v;
      go (i + 1)
    end
  in
  let v = go 0 in
  (v, median times)

(* What one workload run reports: operation counts plus named metrics
   (name, unit, value) and free-form context lines for the reader. *)
type outcome = {
  attempted : int;
  failed : int;
  wrong : int;  (** operations whose answer check failed *)
  metrics : (string * string * float) list;
  context : (string * string) list;
}

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The last line of standard output: the result object, with exactly the
   keys correct, attempted, failed and metrics. *)
let result_line o =
  let metrics =
    o.metrics
    |> List.map (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_number v) (json_string unit))
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.wrong = 0) o.attempted o.failed metrics

(* Every per-layer metric, in BENCHMARK.json order. A traced run prints
   all of them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("lat.p50_ms", "ms");
    ("lat.tail_ms", "ms");
    ("lp.master_s", "s");
    ("lp.master_share", "ratio");
    ("lp.us_per_pivot", "us");
    ("lp.pivots_per_solve", "count");
    ("lp.refactors_per_solve", "count");
    ("lp.ft_updates_per_solve", "count");
    ("lp.bound_flips_per_pivot", "ratio");
    ("lp.rebuilds_per_solve", "count");
    ("lp.fallbacks_per_solve", "count");
    ("lp.dense_pivots_per_solve", "count");
    ("lp.fallback_wall_share", "ratio");
    ("lp.words_per_pivot", "words");
    ("lp.fill_nnz", "count");
    ("sep.s", "s");
    ("sep.share", "ratio");
    ("sep.us_per_oracle", "us");
    ("sep.oracle_calls_per_solve", "count");
    ("sep.yield", "ratio");
    ("cut.rounds_per_solve", "count");
    ("cut.cuts_per_solve", "count");
    ("cut.coverage", "ratio");
    ("session.resolve_p50_ms", "ms");
    ("session.mutate_p50_ms", "ms");
    ("session.reuse_share", "ratio");
    ("session.pivots_per_resolve", "count");
    ("session.patched_share", "ratio");
    ("kind.lp3_p50_ms", "ms");
    ("kind.cut_p50_ms", "ms");
    ("kind.enforce_p50_ms", "ms");
    ("kind.check_p50_ms", "ms");
    ("kind.snd_p50_ms", "ms");
    ("service.elapsed_p50_ms", "ms");
    ("service.elapsed_p99_ms", "ms");
    ("service.queue_depth_mean", "count");
    ("service.cache_hit_share", "ratio");
    ("service.shed_share", "ratio");
    ("wire.decode_us", "us");
    ("wire.encode_us", "us");
    ("gen.lag_ms_max", "ms");
    ("trace.overhead_share", "ratio");
  ]

let complete_layers metrics =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some m -> m
      | None -> (name, unit, 0.0))
    per_layer

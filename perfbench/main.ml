(* The end-to-end benchmark: one command that runs a workload, checks
   its outputs, and prints every metric by name and unit.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Every input is fixed (the Table 1 programs and the serve request
   stream), so the model metrics repeat exactly; the seed is recorded in
   the provenance line.

   It is built only from calls into the repository's public modules
   (Gsc.Runtime, Harness.Calibrate/Runs/Simclock, Workloads.Serve,
   Obs.Trace/Flight/Slo); the Section 6 pipeline is reached through
   Harness.Runs.  See perfbench/README.md for the metric table, the
   workloads and the host-noise evidence that shaped the statistics
   below.

   A run has four phases:

   1. set-up, timed cold: forked children and then this process each
      perform the workload's whole set-up before anything fills the
      per-process caches of [Harness.Calibrate] and [Harness.Runs];
      [setup_s] is the median of those samples, rescaled to a fixed host
      speed by a reference loop timed beside them;
   2. the measured phase: for [--seconds], rounds of passes, each pass
      one program on a fresh runtime with tracing off, the workload's
      programs interleaved;
   3. one traced pass per program on the deterministic model clock
      (an [Obs.Trace] buffer sink whose clock is the live runtime's
      [Simclock.total_seconds]): model pause percentiles, the per-layer
      metrics and the layer-sum checks;
   4. the result: with [--trace 0] every end-to-end metric, with
      [--trace 1] every per-layer metric, as the last line of standard
      output.

   Every check below counts as one operation; [failed] counts those that
   did not hold. *)

module R = Gsc.Runtime
module S = Collectors.Gc_stats

let now = Unix.gettimeofday

(* ---------- statistics ---------- *)

(* nearest-rank percentile, [q] in (0, 1] *)
let pct q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = pct 0.5 xs
let sum = List.fold_left ( +. ) 0.

(* The statistic the host timings gate on.  The host alternates between
   a fast and a slow speed (README, "Host noise"); the low decile of a
   run's passes tracks the fast speed whenever the run saw any of it,
   while the median moves with the mix of the two. *)
let low xs = pct 0.1 xs

(* ---------- correctness accounting ---------- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end

(* ---------- programs ---------- *)

(* What one program run returns beyond the runtime's statistics. *)
type output = {
  checksum : int option;         (* serve only *)
  latency : (float * float) option;
      (* serve only: worst-tenant request p50 and p99, µs *)
}

type program = {
  pname : string;
  cfg : Gsc.Config.t;
  run : ?slo:Obs.Slo.t -> R.t -> output;
      (* runs the program; raises if its self-verification fails *)
}

let table1 name cfg =
  let w = Workloads.Registry.find name in
  let scale = Harness.Runs.scale ~factor:1.0 w in
  { pname = name; cfg;
    run = (fun ?slo:_ rt ->
        w.Workloads.Spec.run rt ~scale;
        { checksum = None; latency = None }) }

(* serve-ms: gc-serve's production shape (the serve rows of bench/).
   The stream is fixed, so that the model metrics repeat exactly from
   run to run. *)
let serve_seed = 42
let serve_tenants = 3
let serve_sessions = 64
let serve_requests = 80_000
let serve_rate = 2000.
let serve_target = { Obs.Slo.no_target with Obs.Slo.max_pause_us = Some 200. }

let serve_run ?slo rt =
  let rep =
    Workloads.Serve.run rt ?slo ~tenants:serve_tenants
      ~sessions:serve_sessions ~requests:serve_requests ~rate_rps:serve_rate
      ~seed:serve_seed ()
  in
  let worst f =
    List.fold_left (fun m t -> Float.max m (f t)) 0. rep.Workloads.Serve.tenants
  in
  { checksum = Some rep.Workloads.Serve.checksum;
    latency =
      Some
        (worst (fun t -> t.Workloads.Serve.p50_lat_us),
         worst (fun t -> t.Workloads.Serve.p99_lat_us)) }

let with_slots n cfg =
  { cfg with Gsc.Config.global_slots = max cfg.Gsc.Config.global_slots n }

(* [in_child f] runs [f] in a forked copy of this process and returns
   the one-line string [f] returns, or [None] if [f] raised.  The copy
   starts with this process's caches as they are, and its memory never
   counts toward this process's peak. *)
let in_child f =
  let rd, wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let line = match f () with l -> l ^ "\n" | exception _ -> "\n" in
    ignore (Unix.write_substring wr line 0 (String.length line));
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    if line = "" then None else Some line

(* ---------- workloads and their set-up ---------- *)

type setup_times = {
  calibrate_s : float;
  profiled_run_s : float;
  policy_s : float;
  oracle_s : float;
}

type workload = {
  wname : string;
  deterministic : bool;   (* model metrics must repeat bit for bit *)
  serve : bool;           (* passes run under the flight ring + SLO monitor *)
  setup : unit -> program list * int option * setup_times;
      (* the programs, the serve oracle checksum, the set-up breakdown *)
}

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* cold calibration of Min for each program: the first call in a
   process runs the semispace calibration, later calls hit the cache *)
let calibrate names =
  timed (fun () ->
      List.iter
        (fun n ->
          let w = Workloads.Registry.find n in
          ignore (Harness.Calibrate.min_bytes ~workload:w
                    ~scale:(Harness.Runs.scale ~factor:1.0 w)))
        names)

let config_for name technique =
  let w = Workloads.Registry.find name in
  Harness.Runs.config_for ~workload:w ~scale:(Harness.Runs.scale ~factor:1.0 w)
    ~technique ~k:4.0

let markers_cfg name = config_for name Harness.Runs.Markers

let no_times =
  { calibrate_s = 0.; profiled_run_s = 0.; policy_s = 0.; oracle_s = 0. }

let stack_scan =
  let names = [ "knuth-bendix"; "color"; "lexgen" ] in
  { wname = "stack-scan"; deterministic = true; serve = false;
    setup = (fun () ->
        let (), calibrate_s = calibrate names in
        let progs, policy_s =
          timed (fun () -> List.map (fun n -> table1 n (markers_cfg n)) names)
        in
        (progs, None, { no_times with calibrate_s; policy_s })) }

(* Section 6: calibrate -> profiled run -> Pretenure.of_profile -> policy,
   as [Harness.Runs] defines gen+marker+pretenure; the policy step reads
   the profile the profiled run left in the [Runs] cache *)
let pretenure =
  let names = [ "nqueen"; "simple"; "pia"; "peg" ] in
  { wname = "pretenure"; deterministic = true; serve = false;
    setup = (fun () ->
        let (), calibrate_s = calibrate names in
        let (), profiled_run_s =
          timed (fun () ->
              List.iter
                (fun n ->
                  let w = Workloads.Registry.find n in
                  ignore (Harness.Runs.profile_of ~workload:w
                            ~scale:(Harness.Runs.scale ~factor:1.0 w)))
                names)
        in
        let progs, policy_s =
          timed (fun () ->
              List.map
                (fun n -> table1 n (config_for n Harness.Runs.Pretenure))
                names)
        in
        (progs, None,
         { no_times with calibrate_s; profiled_run_s; policy_s })) }

(* the expected checksum comes from an independent semispace run of the
   same request stream, in a child process so that its heap does not
   count toward [peak_rss_mb] *)
let serve_ms =
  { wname = "serve-ms"; deterministic = true; serve = true;
    setup = (fun () ->
        let base = Gsc.Config.generational ~budget_bytes:(4 * 1024 * 1024) in
        let cfg =
          with_slots serve_tenants
            { base with
              Gsc.Config.nursery_bytes_max = 32 * 1024;
              major_kind = Collectors.Generational.Mark_sweep;
              tenured_backend = Alloc.Backend.Free_list;
              slo = serve_target }
        in
        let expected, oracle_s =
          timed (fun () ->
              in_child (fun () ->
                  let budget_bytes = 16 * 1024 * 1024 in
                  let rt =
                    R.create
                      (with_slots serve_tenants
                         (Gsc.Config.semispace ~budget_bytes))
                  in
                  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
                  string_of_int (Option.get (serve_run rt).checksum))
              |> Option.map int_of_string)
        in
        ([ { pname = "serve"; cfg; run = serve_run } ], expected,
         { no_times with oracle_s })) }

let drain_p2 =
  let names = [ "pia"; "simple" ] in
  { wname = "drain-p2"; deterministic = false; serve = false;
    setup = (fun () ->
        let (), calibrate_s = calibrate names in
        let progs, policy_s =
          timed (fun () ->
              List.map
                (fun n ->
                  table1 n
                    { (markers_cfg n) with
                      Gsc.Config.parallelism = 2;
                      parallelism_mode = Collectors.Par_drain.Real })
                names)
        in
        (progs, None, { no_times with calibrate_s; policy_s })) }

let workloads = [ stack_scan; pretenure; serve_ms; drain_p2 ]

(* ---------- one pass ---------- *)

(* Everything the model and the counters say about one program run; two
   runs of the same program must agree on all of it exactly. *)
let fingerprint (s : S.t) =
  let m = Harness.Simclock.of_stats s in
  ( [ m.Harness.Simclock.client_seconds; m.Harness.Simclock.stack_seconds;
      m.Harness.Simclock.copy_seconds ],
    [ s.S.minor_gcs; s.S.major_gcs; s.S.words_allocated; s.S.objects_allocated;
      s.S.words_copied; s.S.words_promoted; s.S.words_pretenured;
      s.S.words_region_scanned; s.S.words_marked; s.S.words_swept_free;
      S.words_scanned s; s.S.mutator_ops; s.S.pointer_updates;
      s.S.barrier_entries_processed; s.S.frames_decoded; s.S.frames_reused;
      s.S.slots_decoded; s.S.marker_stubs_installed; s.S.marker_stub_hits ] )

type pass = {
  wall : float;       (* create + run, host seconds *)
  create : float;
  gc : float;         (* Gc_stats.gc_seconds *)
  minor_w : float;    (* the simulator's own OCaml minor allocation *)
  stats : S.t;
  out : output option;   (* None: the program raised *)
}

let run_pass ?slo ?(on_create = ignore) prog =
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  let t0 = now () in
  let rt = R.create prog.cfg in
  let t1 = now () in
  on_create rt;
  Fun.protect ~finally:(fun () -> R.destroy rt) @@ fun () ->
  let out =
    match prog.run ?slo rt with
    | o -> Some o
    | exception e ->
      Printf.eprintf "%s raised %s\n%!" prog.pname (Printexc.to_string e);
      None
  in
  let t2 = now () in
  let minor_w = Gc.minor_words () -. mw0 in
  check (prog.pname ^ ": self-verification") (out <> None);
  check (prog.pname ^ ": check_heap")
    (match R.check_heap rt with _ -> true | exception _ -> false);
  { wall = t2 -. t0; create = t1 -. t0; gc = S.gc_seconds (R.stats rt);
    minor_w; stats = R.stats rt; out }

(* ---------- the traced pass ---------- *)

type traced = {
  t_pass : pass;
  model_pauses : float list;   (* t_us(gc_end) - t_us(gc_begin), model µs *)
  host_pauses : float list;    (* gc_end pause_us, host µs *)
  to_roots_us : float;
      (* summed t_us(roots phase) - t_us(gc_begin): the model time the
         clock advanced while the roots were scanned, model µs *)
  after_roots_us : float;      (* summed t_us(gc_end) - t_us(roots phase) *)
  stubs_installed : float;     (* summed marker_place [installed] *)
  spans : (string, float) Hashtbl.t;
      (* per phase name: summed dur_us, and "<name>.<counter>" sums *)
}

let num j k =
  match Obs.Json.member k j with Some (Obs.Json.Num v) -> v | _ -> 0.

let str j k =
  match Obs.Json.member k j with Some (Obs.Json.Str s) -> s | _ -> ""

let find tbl k = try Hashtbl.find tbl k with Not_found -> 0.
let add tbl k v = Hashtbl.replace tbl k (find tbl k +. v)

let run_traced ~serve prog =
  let cur = ref None in
  let clock () =
    match !cur with
    | None -> 0.
    | Some rt ->
      Harness.Simclock.total_seconds (Harness.Simclock.of_stats (R.stats rt))
  in
  let buf = Buffer.create (1 lsl 20) in
  let slo = if serve then Some (Obs.Slo.create serve_target) else None in
  let p =
    Obs.Trace.with_buffer ?slo ~clock buf (fun () ->
        run_pass ?slo ~on_create:(fun rt -> cur := Some rt) prog)
  in
  let model_pauses = ref [] and host_pauses = ref [] in
  let begin_us = ref 0. and roots_us = ref 0. in
  let to_roots = ref 0. and after_roots = ref 0. and stubs = ref 0. in
  let spans = Hashtbl.create 32 in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun line ->
      if line <> "" then begin
        let j = Obs.Json.parse line in
        match str j "ev" with
        | "gc_begin" ->
          begin_us := num j "t_us";
          roots_us := !begin_us
        | "gc_end" ->
          let t = num j "t_us" in
          model_pauses := (t -. !begin_us) :: !model_pauses;
          host_pauses := num j "pause_us" :: !host_pauses;
          to_roots := !to_roots +. (!roots_us -. !begin_us);
          after_roots := !after_roots +. (t -. !roots_us)
        | "marker_place" -> stubs := !stubs +. num j "installed"
        | "phase" ->
          let name = str j "name" in
          if name = "roots" then roots_us := num j "t_us";
          add spans name (num j "dur_us");
          (match Obs.Json.member "counters" j with
           | Some (Obs.Json.Obj kv) ->
             List.iter
               (function
                 | k, Obs.Json.Num n -> add spans (name ^ "." ^ k) n
                 | _ -> ())
               kv
           | _ -> ())
        | _ -> ()
      end);
  { t_pass = p; model_pauses = !model_pauses; host_pauses = !host_pauses;
    to_roots_us = !to_roots; after_roots_us = !after_roots;
    stubs_installed = !stubs; spans }

(* ---------- set-up, cold, several times ---------- *)

let setup_reps = 5

(* The host's speed drifts by up to 1.4x over minutes (README, "Host
   noise"), and the cold set-up drifts with it.  [setup_s] is therefore
   rescaled to a fixed speed: before each set-up sample a child times
   [reference], a fixed OCaml allocation loop that lives here, not in
   lib/, so no change to the program moves it.  Its working set (a hash
   table of 400k small arrays) outgrows the caches, which is why it
   follows the drift; an ALU loop does not. *)
let reference () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 1 to 400_000 do
    Hashtbl.replace h (i * 7919 land 0xfffff) (Array.make 4 i)
  done;
  ignore (Sys.opaque_identity h);
  now () -. t0

(* [reference]'s time at the nominal speed, about its median in a child
   on the 2-core host the benchmark was introduced on.  It fixes the
   scale of [setup_s] only: the gate compares ratios. *)
let reference_nominal_s = 0.3

(* [setup_reps] rounds, each a [reference] sample in a child and then a
   set-up sample: in the first [setup_reps - 1] rounds a child performs
   the set-up in a fresh copy of this process (nothing cached yet) and
   reports its times on a pipe; in the last this process performs it
   for real.  Returns the set-up samples and the reference samples. *)
let cold_setups w =
  let reference_sample () =
    let r =
      Option.bind
        (in_child (fun () -> Printf.sprintf "%h" (reference ())))
        float_of_string_opt
    in
    check "reference (child)" (r <> None);
    r
  in
  let child () =
    let line =
      in_child (fun () ->
          let (_, _, t), total = timed w.setup in
          Printf.sprintf "%h %h %h %h %h" total t.calibrate_s t.profiled_run_s
            t.policy_s t.oracle_s)
    in
    match Option.map (String.split_on_char ' ') line with
    | Some [ total; c; p; pol; o ] ->
      check "set-up (child)" true;
      let f = float_of_string in
      Some
        (f total,
         { calibrate_s = f c; profiled_run_s = f p; policy_s = f pol;
           oracle_s = f o })
    | _ ->
      check "set-up (child)" false;
      None
  in
  let rounds =
    List.init (setup_reps - 1) (fun _ ->
        let r = reference_sample () in
        (r, child ()))
  in
  let r = reference_sample () in
  let (progs, expected, t), total = timed w.setup in
  (progs, expected,
   (total, t) :: List.filter_map snd rounds,
   List.filter_map Fun.id (r :: List.map fst rounds))

(* ---------- output ---------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let commit () =
  if Sys.file_exists ".git" then
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c
  else "none"

(* digest of the sources the program is built from, so a result names
   its code even outside a git checkout *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
        then [ p ]
        else [])
  in
  let all = files "lib" @ files "perfbench" in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file all)))

let provenance ~workload ~seed ~seconds ~trace =
  let tm = Unix.gmtime (now ()) in
  Printf.printf
    "provenance {\"commit\":%S,\"source_md5\":%S,\"ocaml\":%S,\"nproc\":%d,\
     \"date\":\"%04d-%02d-%02dT%02d:%02d:%02dZ\",\"workload\":%S,\"seed\":%d,\
     \"seconds\":%g,\"trace\":%d}\n"
    (commit ()) (source_digest ()) Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec workload seed seconds
    (if trace then 1 else 0)

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (stack-scan|pretenure|serve-ms|drain-p2) \
     --seed N --seconds S --trace (0|1)";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let w = List.find_opt (fun w -> w.wname = !workload) workloads in
  match w, !seed, !seconds, !trace with
  | Some w, Some seed, Some secs, Some trace when secs > 0. ->
    (w, seed, secs, trace)
  | _ -> usage ()

(* The measured phase: rounds of passes for [seconds] (at least three
   rounds), tracing off except for serve's production flight ring. *)
let measure w progs ~seconds =
  let pass prog =
    if w.serve then begin
      let slo = Obs.Slo.create serve_target in
      let fl = Obs.Flight.create ~capacity:256 () in
      Obs.Trace.with_ring ~slo fl (fun () -> run_pass ~slo prog)
    end
    else run_pass prog
  in
  let t_start = now () in
  let rec go rounds acc =
    if now () -. t_start >= seconds && rounds >= 3 then (rounds, acc)
    else go (rounds + 1) (List.map2 (fun prog ps -> pass prog :: ps) progs acc)
  in
  let rounds, acc = go 0 (List.map (fun _ -> []) progs) in
  (rounds, List.map List.rev acc)

(* Serve checksums against the oracle, and the determinism guard: every
   pass and the traced pass against the program's first pass.  Returns
   the largest relative [sim_s] difference seen. *)
let check_passes w ~expected (prog, passes, traced) =
  let all = passes @ [ traced.t_pass ] in
  List.iter
    (fun p ->
      match p.out with
      | Some { checksum = Some c; _ } ->
        check "serve checksum = semispace oracle" (Some c = expected)
      | _ -> ())
    all;
  let first = List.hd passes in
  let sim p =
    Harness.Simclock.total_seconds (Harness.Simclock.of_stats p.stats)
  in
  if w.deterministic then begin
    List.iter
      (fun p ->
        check (prog.pname ^ ": model and counters repeat")
          (fingerprint p.stats = fingerprint first.stats))
      all;
    (* the simulator's own allocation repeats too, tracing off; serve's
       SLO monitor allocates per breach, and breaches depend on host
       pause lengths *)
    if not w.serve then
      List.iter
        (fun p ->
          check (prog.pname ^ ": OCaml allocation repeats")
            (p.minor_w = first.minor_w))
        passes
  end;
  List.fold_left
    (fun d p -> Float.max d (Float.abs (sim p -. sim first) /. sim first))
    0. all

let () =
  let w, seed, seconds, trace = parse_args () in
  provenance ~workload:w.wname ~seed ~seconds ~trace;
  let progs, expected, setups, references = cold_setups w in
  let rounds, passes = measure w progs ~seconds in
  (* the program's peak: set-up and measured passes, before the traced
     pass adds its trace buffer *)
  let peak_rss = peak_rss_mb () in
  let tr = List.map (run_traced ~serve:w.serve) progs in
  let runs = List.combine (List.combine progs passes) tr
             |> List.map (fun ((p, ps), t) -> (p, ps, t)) in
  let drift =
    List.fold_left (fun d r -> Float.max d (check_passes w ~expected r)) 0. runs
  in
  (* host statistics over each program's passes, summed over programs *)
  let host stat field =
    sum (List.map (fun ps -> stat (List.map field ps)) passes)
  in
  let wall_s = host low (fun p -> p.wall) in
  (* request latency, serve's worst tenant; 0 on the other workloads *)
  let lat stat f =
    host (fun xs -> stat (List.filter_map Fun.id xs))
      (fun p -> Option.bind p.out (fun o -> Option.map f o.latency))
  in
  (* a pass's p50 sits at the host clock's 1 µs resolution, so the run
     reports the mean over its passes *)
  let mean xs = sum xs /. float_of_int (max 1 (List.length xs)) in
  let req_p50 = lat mean fst and req_p99 = lat low snd in
  (* the traced pass *)
  let tstats = List.map (fun t -> t.t_pass.stats) tr in
  let models = List.map Harness.Simclock.of_stats tstats in
  let model f = sum (List.map f models) in
  let traced_gc_s = model Harness.Simclock.gc_seconds
  and scan_model_s = model (fun m -> m.Harness.Simclock.stack_seconds)
  and copy_model_s = model (fun m -> m.Harness.Simclock.copy_seconds) in
  (* the reported totals are each program's median over all its passes,
     the traced one included: every pass agrees, except on drain-p2,
     where real domains make them differ slightly *)
  let model_median f =
    List.map2
      (fun ps t ->
        median
          (List.map (fun p -> f (Harness.Simclock.of_stats p.stats))
             (t.t_pass :: ps)))
      passes tr
    |> sum
  in
  let sim_s = model_median Harness.Simclock.total_seconds
  and sim_gc_s = model_median Harness.Simclock.gc_seconds in
  let model_pauses = List.concat_map (fun t -> t.model_pauses) tr in
  let host_pauses = List.concat_map (fun t -> t.host_pauses) tr in
  let count f = float_of_int (List.fold_left (fun a s -> a + f s) 0 tstats) in
  let span name = sum (List.map (fun t -> find t.spans name) tr) in
  let phase name = span name /. 1e6 in
  (* layer sums; the trace prints timestamps to 0.1 µs *)
  let n_gcs = float_of_int (List.length model_pauses) in
  let quantum = 0.1e-6 *. n_gcs in
  let near x y = Float.abs (x -. y) <= quantum +. 1e-9 *. y in
  check "model: pauses sum to sim_gc_s"
    (near (sum model_pauses /. 1e6) traced_gc_s);
  (* The model clock splits each pause at its [roots] phase: what it
     advanced before is the stack scan, what it advanced after is the
     copy.  Two stack charges land after the roots phase: the stubs
     that marker placement installs at the end of a collection, and the
     share of the fixed per-collection charge that Simclock books to the
     stack (20%, see simclock.mli), added when the collection counts
     itself.  Moving them back must give Simclock's own stack/copy
     split. *)
  let late_stack_us =
    (0.2 *. Harness.Simclock.cost_gc_call *. n_gcs)
    +. Harness.Simclock.cost_frame_reuse
       *. sum (List.map (fun t -> t.stubs_installed) tr)
  in
  check "model: stack time is charged during the roots phase"
    (near
       ((sum (List.map (fun t -> t.to_roots_us) tr) +. late_stack_us) /. 1e6)
       scan_model_s);
  check "model: copy time is charged after the roots phase"
    (near
       ((sum (List.map (fun t -> t.after_roots_us) tr) -. late_stack_us) /. 1e6)
       copy_model_s);
  let phases_s =
    sum
      (List.map phase
         [ "roots"; "barrier"; "region_scan"; "copy"; "los_sweep"; "mark";
           "sweep" ])
  in
  let host_pause_s = sum host_pauses /. 1e6 in
  let unattributed = host_pause_s -. phases_s in
  check "host: phase self-times sum to the pause total"
    (phases_s <= host_pause_s *. 1.01 && unattributed <= 0.25 *. host_pause_s);
  let per x d = if d > 0. then x /. d else 0. in
  let words_copied = count (fun s -> s.S.words_copied)
  and swept = count (fun s -> s.S.words_swept_free)
  and frames_decoded = count (fun s -> s.S.frames_decoded)
  and frames_reused = count (fun s -> s.S.frames_reused) in
  let dom_spans =
    List.init S.max_domains (fun d -> phase (Printf.sprintf "copy.d%d" d))
    |> List.filter (fun v -> v > 0.)
  in
  let setup_med f = median (List.map f setups) in
  let setup_raw = setup_med fst and reference_s = median references in
  let setup_s =
    if reference_s > 0. then setup_raw *. reference_nominal_s /. reference_s
    else 0.
  in
  (* model times carry their own units: they are cost-model seconds,
     identical in every run, not measured time *)
  let s = "s" and us = "us" and model_s = "model_s" and n = "count"
  and words = "words" and ratio = "ratio" in
  (* Host timings are per-layer, not end-to-end: they move with the
     host's speed by up to 2x between runs (README, "Host noise"), so
     no bound could gate them. *)
  let end_to_end =
    [ ("sim_s", sim_s, model_s); ("sim_gc_s", sim_gc_s, model_s);
      ("sim_pause_p50_us", pct 0.5 model_pauses, "model_us");
      ("sim_pause_p99_us", pct 0.99 model_pauses, "model_us");
      ("setup_s", setup_s, s); ("peak_rss_mb", peak_rss, "MB") ]
  and per_layer =
    [ ("wall_s", wall_s, s); ("gc_s", host low (fun p -> p.gc), s);
      ("req_p50_us", req_p50, us); ("req_p99_us", req_p99, us);
      ("rstack.frames_decoded", frames_decoded, n);
      ("rstack.frames_reused", frames_reused, n);
      ("rstack.reuse_ratio",
       per frames_reused (frames_decoded +. frames_reused), ratio);
      ("rstack.stub_hits", count (fun s -> s.S.marker_stub_hits), n);
      ("rstack.scan_model_s", scan_model_s, model_s);
      ("rstack.scan_host_s", phase "roots", s);
      ("gc.words_copied", words_copied, words);
      ("gc.words_promoted", count (fun s -> s.S.words_promoted), words);
      ("gc.copy_host_s", phase "copy", s);
      ("gc.copy_model_s", copy_model_s, model_s);
      ("gc.copy_ns_per_word",
       per (phase "copy" *. 1e9) words_copied, "ns/word");
      ("gc.region_words_scanned",
       count (fun s -> s.S.words_region_scanned), words);
      ("gc.region_scan_host_s", phase "region_scan", s);
      ("gc.barrier_entries", count (fun s -> s.S.barrier_entries_processed), n);
      ("gc.barrier_host_s", phase "barrier", s);
      ("gc.words_marked", count (fun s -> s.S.words_marked), words);
      ("gc.mark_host_s", phase "mark", s);
      ("gc.words_swept_free", swept, words);
      ("gc.sweep_host_s", phase "sweep", s);
      ("gc.sweep_ns_per_freed_word",
       per (phase "sweep" *. 1e9) swept, "ns/word");
      ("gc.unattributed_host_s", unattributed, s);
      ("gc.pause_p99_host_us", pct 0.99 host_pauses, us);
      ("alloc.tenured_free_blocks",
       count (fun s -> s.S.tenured_free_blocks), n);
      ("alloc.tenured_largest_hole",
       float_of_int
         (List.fold_left (fun a s -> max a s.S.tenured_largest_hole) 0 tstats),
       words);
      ("par_drain.busy_s", sum dom_spans, s);
      ("par_drain.steals", span "copy.steals", n);
      ("par_drain.imbalance",
       per (List.fold_left Float.max 0. dom_spans)
         (per (sum dom_spans) (float_of_int (List.length dom_spans))),
       ratio);
      ("core.mutator_ops", count (fun s -> s.S.mutator_ops), n);
      ("core.words_allocated", count (fun s -> s.S.words_allocated), words);
      ("core.words_pretenured", count (fun s -> s.S.words_pretenured), words);
      ("core.mutator_host_s", host low (fun p -> p.wall -. p.gc), s);
      ("core.create_s", host median (fun p -> p.create), s);
      ("host.minor_mw", host median (fun p -> p.minor_w) /. 1e6, "Mwords");
      ("host.wall_p50_s", host median (fun p -> p.wall), s);
      ("host.gc_p50_s", host median (fun p -> p.gc), s);
      ("host.rounds", float_of_int rounds, n);
      ("setup.raw_s", setup_raw, s);
      ("setup.reference_s", reference_s, s);
      ("setup.calibrate_s", setup_med (fun (_, t) -> t.calibrate_s), s);
      ("setup.profiled_run_s", setup_med (fun (_, t) -> t.profiled_run_s), s);
      ("setup.policy_s", setup_med (fun (_, t) -> t.policy_s), s);
      ("setup.oracle_s", setup_med (fun (_, t) -> t.oracle_s), s);
      ("obs.trace_overhead",
       per
         (sum (List.map (fun t -> t.t_pass.wall) tr))
         (host median (fun p -> p.wall)),
       ratio);
      ("det.model_drift", drift, ratio) ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u)
    (end_to_end @ per_layer);
  List.iter (Printf.eprintf "check failed: %s\n") (List.rev !failures);
  Printf.printf "checks: %d of %d failed\n" !failed !attempted;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ","
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_num v) u)
          (if trace then per_layer else end_to_end)))

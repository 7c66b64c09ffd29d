(* The repository benchmark: whole-check latency of the hierarchical
   checker on three seeded workloads, and a traced run that splits a
   check into its layers.

     main.exe --workload pla-hier|blocks-hier|pla-edit --seed N
              --seconds S --trace 0|1

   One check is what [dicheck FILE] does after process start: CIF text
   -> [Engine.check_string] at the CLI's default [jobs = 0] -> the
   rendered [Report.pp] string.  The checker only ever sees CIF text
   generated from the seed.  The last line of standard output is the
   result object; the line before it carries provenance and the
   correctness counts.  Spans and results are also written under
   .bench_out/.

   Why these workloads: pla-hier puts ~80% of a check in the
   interaction layer, blocks-hier ~97% in net construction, and
   pla-edit replays most per-definition and interaction work from a
   disk cache, so each layer has a workload that exercises it and one
   that barely touches it. *)

open Perfbench_gen

let usage =
  "usage: main.exe --workload pla-hier|blocks-hier|pla-edit --seed N --seconds S --trace 0|1"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

type args = {
  workload : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | [ flag ] -> fail "%s needs a value\n%s" flag usage
    | flag :: v :: rest -> go ((flag, v) :: acc) rest
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get flag =
    match List.assoc_opt flag kv with Some v -> v | None -> fail "missing %s\n%s" flag usage
  in
  let int flag =
    match int_of_string_opt (get flag) with
    | Some n -> n
    | None -> fail "%s: not an integer" flag
  in
  List.iter
    (fun (flag, _) ->
      if not (List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then
        fail "unknown option %s\n%s" flag usage)
    kv;
  { workload =
      (match Workload.of_name (get "--workload") with
      | Some k -> k
      | None -> fail "unknown workload %s\n%s" (get "--workload") usage);
    seed = int "--seed";
    seconds = float_of_int (max 1 (int "--seconds"));
    trace =
      (match int "--trace" with 0 -> false | 1 -> true | _ -> fail "--trace takes 0 or 1") }

(* Sizes: a check takes a quarter to half a second on a 2-vCPU host, so
   a 40 s run holds 60-130 checks, enough for a median and a tail. *)
let pla_rows = 32
let pla_cols = 64
let blocks_nx = 64
let blocks_ny = 64

(* The CLI default; resolves to [Domain.recommended_domain_count ()]. *)
let jobs = 0

(* At least this many timed checks, so the tail percentile below always
   has ten samples beyond it. *)
let min_checks = 11

let out_dir = ".bench_out"

(* ---------------------------------------------------------------- *)
(* Measurement helpers                                                *)

let now () = Int64.to_float (Dic.Metrics.now_ns ()) *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, i.e. the (n-10)/n quantile. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* ---------------------------------------------------------------- *)
(* Host speed                                                         *)

(* On a shared host the CPU runs up to twice as slow for seconds to
   minutes at a time, and the wall-time medians of ten runs of the same
   code spread over a third of their median.  So a fixed kernel that
   uses none of the checker is timed right before each timed check and
   set-up, and the reported time is the wall time scaled to the host
   speed at which the kernel takes [kernel_ref_s] (about its median on
   a 2-vCPU cloud VM).  A change to the checker moves the scaled time
   as it moves the wall time; a slow host phase moves the check and the
   kernel together.  Over 15 s windows of one long pla-hier run the
   scaled median spread 3% where the wall median spread 10-26%.  Raw
   wall medians are printed on the provenance line. *)
let kernel_ref_s = 0.045

(* Hashing, sorting and list allocation: the checker's mix of work. *)
let host_kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 30_000 do
    Hashtbl.replace h (i * 7919 land 0xfffff) i
  done;
  let a = Array.init 60_000 (fun i -> float_of_int (i * 104729 mod 99991)) in
  Array.sort compare a;
  let l = List.init 50_000 (fun i -> (i, a.(i mod 1000))) in
  ignore (Sys.opaque_identity (h, List.sort (fun (_, x) (_, y) -> compare y x) l))

(* Wall seconds of the kernel, run on a compacted heap. *)
let kernel_s () =
  Gc.compact ();
  let t0 = now () in
  host_kernel ();
  now () -. t0

let at_ref_speed ~kernel dt = dt /. kernel *. kernel_ref_s

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let render (r : Dic.Engine.result) = Format.asprintf "%a" Dic.Report.pp r.Dic.Engine.report

(* One check the way the CLI runs it: a fresh engine per check. *)
let check ?cache_dir ~jobs rules text =
  let engine = Dic.Engine.with_jobs (Dic.Engine.create ?cache_dir rules) jobs in
  match Dic.Engine.check_string engine text with
  | Ok multi ->
    let result, reuse = Dic.Engine.primary multi in
    Ok (result, reuse, render result)
  | Error msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

(* ---------------------------------------------------------------- *)
(* Workload set-up                                                    *)

(* Everything a run starts from: the deck, the design text and its
   ground truth, and on pla-edit the program that edits start from. *)
type setup = {
  rules : Tech.Rules.t;
  text : string;
  truths : Dic.Classify.truth list;
  program : bool array array;  (** the PLA program; empty for blocks-hier *)
  cache_dir : string option;  (** pla-edit: the primed cache *)
}

let lambda = (Tech.Rules.nmos ()).Tech.Rules.lambda
let tolerance = 2 * lambda

let pla_text ~seed program =
  let file, truths = Workload.salt_pla ~lambda ~seed program (Workload.pla_hier ~lambda program) in
  (Cif.Print.to_string file, truths)

(* Set-up as a user pays it: generating the design text, building the
   deck and the engine, and on pla-edit the cold check that fills the
   cache.  Returns the set-up and the priming report, if any. *)
let setup_once args k =
  let rules = Tech.Rules.nmos () in
  match args.workload with
  | Workload.Blocks_hier ->
    let file, truths = Workload.blocks ~lambda ~seed:args.seed ~nx:blocks_nx ~ny:blocks_ny in
    let text = Cif.Print.to_string file in
    ignore (Dic.Engine.with_jobs (Dic.Engine.create rules) jobs);
    ({ rules; text; truths; program = [||]; cache_dir = None }, None)
  | Workload.Pla_hier | Workload.Pla_edit ->
    let program = Layoutgen.Pla.random_program ~rows:pla_rows ~cols:pla_cols ~seed:args.seed in
    let text, truths = pla_text ~seed:args.seed program in
    if args.workload = Workload.Pla_hier then begin
      ignore (Dic.Engine.with_jobs (Dic.Engine.create rules) jobs);
      ({ rules; text; truths; program; cache_dir = None }, None)
    end
    else begin
      let dir =
        Filename.concat out_dir
          (Printf.sprintf "cache-%d-%d-%d" args.seed (Unix.getpid ()) k)
      in
      remove_tree dir;
      match check ~cache_dir:dir ~jobs rules text with
      | Ok (_, _, rendered) ->
        ({ rules; text; truths; program; cache_dir = Some dir }, Some rendered)
      | Error msg -> fail "priming check failed: %s" msg
    end

(* Set-up is timed several times per run: once before the first check
   (that set-up is the one the run uses) and then again, on a throwaway
   copy, every [setup_period] seconds between checks, so the reported
   median samples the host over the whole run like [check_s] does. *)
let setup_period = 2.

type setups = {
  mutable times : float list;  (** at the reference host speed *)
  mutable walls : float list;
  mutable last : float;  (** when the latest set-up ended *)
}

let timed_setup args st k =
  let kernel = kernel_s () in
  let t0 = now () in
  let s, primed = setup_once args k in
  let t1 = now () in
  st.times <- at_ref_speed ~kernel (t1 -. t0) :: st.times;
  st.walls <- (t1 -. t0) :: st.walls;
  st.last <- t1;
  (s, primed)

let extra_setup args st =
  if now () -. st.last >= setup_period then begin
    let s, _ = timed_setup args st (List.length st.times) in
    Option.iter remove_tree s.cache_dir
  end

(* Injected defects missed plus false findings. *)
let verdict_mismatches truths report =
  let o = Dic.Classify.classify ~tolerance truths (Dic.Classify.of_report report) in
  List.length o.Dic.Classify.missed + List.length o.Dic.Classify.false_findings

let findings report =
  List.sort compare
    (List.map
       (fun f -> (f.Dic.Classify.f_family, f.Dic.Classify.f_where))
       (Dic.Classify.of_report report))

(* ---------------------------------------------------------------- *)
(* Correctness tallies                                                *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** Error, exception, or report bytes off the reference *)
  mutable mismatches : int;  (** verdict mismatches, summed over checks *)
  mutable problems : string list;  (** other broken checks, for the log *)
}

let problem t fmt = Printf.ksprintf (fun s -> t.problems <- s :: t.problems) fmt

(* Reference reports at [jobs = 1].  Cold workloads check one text, so
   one cold check in set-up serves every timed check.  On pla-edit
   every operation checks a new text, which a [jobs = 1] in-memory
   session primed on the base design rechecks too. *)
let reference s =
  let session = Dic.Engine.with_jobs (Dic.Engine.create s.rules) 1 in
  let run text =
    match Dic.Engine.check_string session text with
    | Ok multi -> render (fst (Dic.Engine.primary multi))
    | Error msg -> fail "reference check failed: %s" msg
  in
  let base = run s.text in
  (base, run)

(* What one operation checks.  Cold workloads check the same text every
   time.  On pla-edit each operation flips the next seeded crosspoint of
   the base design and rechecks over a fresh copy of the primed cache:
   every recheck meets the same cache, however long the run, instead of
   a memo file that grows with every edit. *)
type op = {
  op_text : string;
  op_truths : Dic.Classify.truth list;
  op_ref : string;  (** the [jobs = 1] reference report *)
  op_cache : string option;
}

let operations args (s : setup) ~ref_base ~ref_of =
  match s.cache_dir with
  | None ->
    fun () -> { op_text = s.text; op_truths = s.truths; op_ref = ref_base; op_cache = None }
  | Some snapshot ->
    let pending =
      ref (Workload.edits ~rows:pla_rows ~cols:pla_cols ~seed:args.seed (pla_rows * pla_cols))
    in
    let work = snapshot ^ "-work" in
    fun () ->
      match !pending with
      | [] -> fail "edit sequence exhausted"
      | e :: rest ->
        pending := rest;
        let text, truths = pla_text ~seed:args.seed (Workload.flip s.program e) in
        remove_tree work;
        copy_tree snapshot work;
        { op_text = text; op_truths = truths; op_ref = ref_of text; op_cache = Some work }

(* ---------------------------------------------------------------- *)
(* Runs                                                               *)

type run_out = {
  metrics : (string * float * string) list;
  extra : (string * Dic.Json.t) list;
}

let untraced args (s : setup) ~setups ~ref_base ~ref_of tally =
  let next = operations args s ~ref_base ~ref_of in
  let times = ref [] and walls = ref [] and kernels = ref [] and allocs = ref [] in
  let last = ref (s.text, ref_base) in
  let t_end = now () +. args.seconds in
  while now () < t_end || tally.attempted < min_checks do
    let op = next () in
    tally.attempted <- tally.attempted + 1;
    let kernel = kernel_s () in
    (* Each check starts from a compacted heap, as a fresh dicheck
       process would, instead of inheriting the last check's garbage. *)
    Gc.compact ();
    let w0 = Layers.words () in
    let t0 = now () in
    let r = check ?cache_dir:op.op_cache ~jobs s.rules op.op_text in
    let dt = now () -. t0 in
    let dw = Layers.words () -. w0 in
    match r with
    | Error msg ->
      tally.failed <- tally.failed + 1;
      problem tally "check failed: %s" msg
    | Ok (result, reuse, rendered) ->
      times := at_ref_speed ~kernel dt :: !times;
      walls := dt :: !walls;
      kernels := kernel :: !kernels;
      allocs := (dw /. 1e6) :: !allocs;
      last := (op.op_text, rendered);
      if not (String.equal rendered op.op_ref) then begin
        tally.failed <- tally.failed + 1;
        problem tally "report differs from the jobs=1 reference"
      end;
      tally.mismatches <- tally.mismatches + verdict_mismatches op.op_truths result.Dic.Engine.report;
      if Option.is_some op.op_cache
         && reuse.Dic.Engine.symbols_reused <> reuse.Dic.Engine.symbols_total - 1
      then
        problem tally "edit reused %d of %d definitions" reuse.Dic.Engine.symbols_reused
          reuse.Dic.Engine.symbols_total;
      extra_setup args setups
  done;
  if List.length !times < min_checks then
    fail "only %d of %d checks succeeded" (List.length !times) tally.attempted;
  (* The last recheck must equal a cold check of the same text. *)
  (if Option.is_some s.cache_dir then
     let text, warm = !last in
     match check ~jobs s.rules text with
     | Ok (_, _, cold) when String.equal cold warm -> ()
     | _ ->
       tally.failed <- tally.failed + 1;
       problem tally "last recheck differs from a cold check");
  let tail_s, pct = tail !times in
  { metrics =
      [ ("check_s", median !times, "s"); ("check_tail_s", tail_s, "s");
        ("alloc_mwords", median !allocs, "Mw") ];
    extra =
      [ ("checks", Dic.Json.Num (float_of_int (List.length !times)));
        ("check_wall_s", Dic.Json.Num (median !walls));
        ("setup_wall_s", Dic.Json.Num (median setups.walls));
        ("kernel_s", Dic.Json.Num (median !kernels));
        ("check_tail_percentile", Dic.Json.Num pct);
        ("setups", Dic.Json.Num (float_of_int (List.length setups.times))) ] }

(* The traced run alternates a layered check (every layer call a span)
   with an untraced engine check of the same text, and reports each
   layer's median. *)
let traced args (s : setup) ~setups:_ ~ref_base ~ref_of tally =
  let trace = Dic.Trace.create () in
  let next = operations args s ~ref_base ~ref_of in
  let layered = ref [] and engine_s = ref [] and reuses = ref [] and same_bytes = ref 0 in
  let t_end = now () +. args.seconds in
  let i = ref 0 in
  while now () < t_end || !i < 3 do
    incr i;
    let op = next () in
    tally.attempted <- tally.attempted + 2;
    let parent = Printf.sprintf "check#%d" !i in
    let tc = Layers.tracer trace ~parent in
    Gc.compact ();
    let t0 = Dic.Metrics.now_ns () in
    let lr = Layers.check tc ~rules:s.rules ~jobs ?cache_dir:op.op_cache op.op_text in
    Dic.Trace.record trace ~cat:"check" parent ~ts_ns:t0
      ~dur_ns:(Int64.sub (Dic.Metrics.now_ns ()) t0);
    Gc.compact ();
    let t1 = now () in
    let er = check ?cache_dir:op.op_cache ~jobs s.rules op.op_text in
    let dt = now () -. t1 in
    match (lr, er) with
    | Error msg, _ | _, Error msg ->
      tally.failed <- tally.failed + 1;
      problem tally "check failed: %s" msg
    | Ok l, Ok (result, reuse, rendered) ->
      layered := l :: !layered;
      engine_s := dt :: !engine_s;
      reuses := reuse :: !reuses;
      if String.equal l.Layers.rendered rendered then incr same_bytes;
      if not (String.equal rendered op.op_ref && l.Layers.serial_matches) then begin
        tally.failed <- tally.failed + 1;
        problem tally "report differs from the jobs=1 reference"
      end;
      match Layers.stage_mismatches l.Layers.report result.Dic.Engine.report with
      | [] -> ()
      | sts ->
        problem tally "layered check differs from Engine.check in stage(s) %s"
          (String.concat ", " (List.map Dic.Report.stage_name sts))
  done;
  let ls = !layered in
  if ls = [] then fail "no layered check succeeded";
  let last = List.hd ls and reuse = List.hd !reuses in
  let med f = median (List.map f ls) in
  let secs name = med (fun l -> Layers.span_secs l name) in
  let mwords name = med (fun l -> Layers.span_mwords l name) in
  let st = last.Layers.stats in
  let pairs, checked =
    Hashtbl.fold
      (fun _ (c : Dic.Interactions.cell_stats) (p, k) -> (p + c.pairs, k + c.checked))
      st.Dic.Interactions.cells (0, 0)
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let stat f = med (fun l -> float_of_int (f l.Layers.stats)) in
  let hits = stat (fun st -> st.Dic.Interactions.memo_hits) in
  let misses = stat (fun st -> st.Dic.Interactions.memo_misses) in
  let run_s = secs "interactions.run" and serial_s = secs Layers.serial_run in
  let spans_file =
    Filename.concat out_dir
      (Printf.sprintf "trace-%s-%d.json" (Workload.name args.workload) args.seed)
  in
  Out_channel.with_open_text spans_file (fun oc ->
      Out_channel.output_string oc (Dic.Trace.to_chrome_json trace));
  { metrics =
      [ ("cif.parse_s", secs "cif.parse", "s");
        ("model.elaborate_s", secs "model.elaborate", "s");
        ("model.instantiated_elements", float_of_int last.Layers.instantiated, "count");
        ("deckcheck.certify_s", secs "deckcheck.certify", "s");
        ("interactions.certified_task_skips", float_of_int last.Layers.task_skips, "count");
        ("element_checks.check_s", secs "element_checks.check", "s");
        ("devices.check_s", secs "devices.check", "s");
        ("netgen.build_s", secs "netgen.build", "s");
        ("netgen.alloc_mwords", mwords "netgen.build", "Mw");
        ("netgen.netlist_s", secs "netgen.netlist", "s");
        ("interactions.plan_s", secs "interactions.plan", "s");
        ("interactions.run_s", run_s, "s");
        ("interactions.alloc_mwords", mwords "interactions.run", "Mw");
        ("interactions.run_serial_s", serial_s, "s");
        ("interactions.speedup", serial_s /. run_s, "x");
        ("interactions.pairs", float_of_int pairs, "count");
        ("interactions.checked_ratio", ratio checked pairs, "ratio");
        ("interactions.memo_hit_ratio",
         (if hits +. misses = 0. then 0. else hits /. (hits +. misses)), "ratio");
        ("interactions.bbox_rejects", stat (fun st -> st.Dic.Interactions.bbox_rejects), "count");
        ("erc.check_s", secs "erc.check", "s");
        ("report.render_s", secs "report.render", "s");
        ("report.bytes", float_of_int (String.length last.Layers.rendered), "B");
        ("cache.lookup_s", secs "cache.lookup", "s");
        ("cache.reuse_ratio",
         ratio reuse.Dic.Engine.symbols_reused reuse.Dic.Engine.symbols_total, "ratio");
        ("cache.memo_loaded", float_of_int reuse.Dic.Engine.memo_loaded, "count");
        ("trace.unattributed_s", median !engine_s -. med Layers.check_secs, "s");
        ("trace.overhead_s", med (fun l -> l.Layers.overhead_s), "s") ];
    extra =
      [ ("layered_checks", Dic.Json.Num (float_of_int (List.length ls)));
        ("layered_reports_byte_equal", Dic.Json.Num (float_of_int !same_bytes));
        ("spans_file", Dic.Json.Str spans_file) ] }

let () =
  let args = parse_args Sys.argv in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let tally = { attempted = 0; failed = 0; mismatches = 0; problems = [] } in
  let setups = { times = []; walls = []; last = 0. } in
  let s, primed = timed_setup args setups 0 in
  let ref_base, ref_of = reference s in
  (match primed with
  | Some p when not (String.equal p ref_base) ->
    problem tally "priming check differs from the jobs=1 reference"
  | _ -> ());
  (* The hierarchical PLA must find exactly what the flat plane of the
     same program finds: hierarchy loses no real error. *)
  let flat_equal =
    match args.workload with
    | Workload.Pla_hier -> (
      let flat, _ =
        Workload.salt_pla ~lambda ~seed:args.seed s.program
          (Layoutgen.Pla.plane ~lambda s.program)
      in
      match (check ~jobs s.rules (Cif.Print.to_string flat), check ~jobs s.rules s.text) with
      | Ok (f, _, _), Ok (h, _, _) ->
        findings f.Dic.Engine.report = findings h.Dic.Engine.report
      | _ -> false)
    | _ -> true
  in
  if not flat_equal then problem tally "hierarchical findings differ from the flat plane's";
  let out =
    (if args.trace then traced else untraced) args s ~setups ~ref_base ~ref_of tally
  in
  Option.iter (fun d -> remove_tree d; remove_tree (d ^ "-work")) s.cache_dir;
  let metrics =
    if args.trace then out.metrics
    else
      out.metrics
      @ [ ("setup_s", median setups.times, "s"); ("peak_rss_mb", peak_rss_mb (), "MB") ]
  in
  let correct = tally.failed = 0 && tally.mismatches = 0 && tally.problems = [] in
  let num n = Dic.Json.Num (float_of_int n) in
  let provenance =
    Dic.Json.Obj
      ([ ("workload", Dic.Json.Str (Workload.name args.workload));
         ("seed", num args.seed);
         ("trace", Dic.Json.Bool args.trace);
         ("jobs", num jobs);
         ("jobs_resolved", num (Dic.Interactions.effective_jobs jobs));
         ("recommended_domain_count", num (Domain.recommended_domain_count ()));
         ("ocaml_version", Dic.Json.Str Sys.ocaml_version);
         ("verdict_mismatches", num tally.mismatches);
         ("failed_frac",
          Dic.Json.Num (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)));
         ("problems", Dic.Json.Arr (List.rev_map (fun p -> Dic.Json.Str p) tally.problems)) ]
      @ out.extra)
  in
  let result =
    Dic.Json.Obj
      [ ("correct", Dic.Json.Bool correct);
        ("attempted", num tally.attempted);
        ("failed", num tally.failed);
        ("metrics",
         Dic.Json.Obj
           (List.map
              (fun (name, v, unit) ->
                (name, Dic.Json.Obj [ ("value", Dic.Json.Num v); ("unit", Dic.Json.Str unit) ]))
              metrics)) ]
  in
  Out_channel.with_open_text
    (Filename.concat out_dir
       (Printf.sprintf "result-%s-%d-trace%d.json" (Workload.name args.workload) args.seed
          (Bool.to_int args.trace)))
    (fun oc ->
      Out_channel.output_string oc
        (Dic.Json.to_string (Dic.Json.Obj [ ("provenance", provenance); ("result", result) ])));
  print_endline (Dic.Json.to_string provenance);
  print_endline (Dic.Json.to_string result)

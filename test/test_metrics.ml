(* Metrics: JSON well-formedness/round-trip, counter invariants, and
   the parallel-interaction determinism guarantee. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

module Json = Dic.Json

(* ------------------------------------------------------------------ *)

let run_ok ?config file =
  match Result.map Dic.Engine.primary @@ Dic.Engine.check (Dic.Engine.create ?config rules) file with
  | Ok (r, _) -> r
  | Error e -> Alcotest.fail e

let workload () = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:4

let test_json_roundtrip () =
  let result = run_ok (workload ()) in
  let v = Dic.Metrics.to_json result.Dic.Engine.metrics in
  (* The printed document parses back to the same value. *)
  (match Json.parse (Json.to_string v) with
  | Ok back -> Alcotest.(check bool) "print/parse round trip" true (back = v)
  | Error m -> Alcotest.fail ("bad JSON: " ^ m));
  (* Stages: present, in pipeline order, with non-negative seconds. *)
  (match Json.member "stages" v with
  | Some (Json.Arr stages) ->
    Alcotest.(check bool) "at least six stages" true (List.length stages >= 6);
    let names =
      List.map
        (fun st ->
          match (Json.member "name" st, Json.member "seconds" st) with
          | Some (Json.Str name), Some (Json.Num s) ->
            Alcotest.(check bool) ("stage " ^ name ^ " time >= 0") true (s >= 0.);
            name
          | _ -> Alcotest.fail "stage entry missing name/seconds")
        stages
    in
    Alcotest.(check string) "first stage" "elaborate" (List.hd names);
    Alcotest.(check bool) "has interactions stage" true (List.mem "interactions" names)
  | _ -> Alcotest.fail "no stages array");
  (* Counters: an object of non-negative integers, sorted by key. *)
  (match Json.member "counters" v with
  | Some (Json.Obj kvs) ->
    Alcotest.(check bool) "some counters" true (List.length kvs > 0);
    List.iter
      (fun (k, cv) ->
        match cv with
        | Json.Num f ->
          Alcotest.(check bool) (k ^ " non-negative") true (f >= 0.);
          Alcotest.(check bool) (k ^ " integral") true (Float.is_integer f)
        | _ -> Alcotest.fail (k ^ " not a number"))
      kvs;
    let keys = List.map fst kvs in
    Alcotest.(check (list string)) "keys sorted" (List.sort String.compare keys) keys;
    Alcotest.(check bool) "has pair counter" true
      (List.mem "interactions.pairs" keys)
  | _ -> Alcotest.fail "no counters object");
  (* Histograms: pair-check cost recorded, bucket counts sum to count. *)
  match Json.member "histograms" v with
  | Some (Json.Obj kvs) -> (
    match List.assoc_opt "interactions.pair_check_ns" kvs with
    | Some h -> (
      match (Json.member "count" h, Json.member "buckets" h) with
      | Some (Json.Num count), Some (Json.Arr buckets) ->
        let total =
          List.fold_left
            (fun acc b ->
              match Json.member "count" b with
              | Some (Json.Num c) -> acc + int_of_float c
              | _ -> Alcotest.fail "bucket without count")
            0 buckets
        in
        Alcotest.(check int) "bucket counts sum to count" (int_of_float count) total
      | _ -> Alcotest.fail "histogram missing count/buckets")
    | None -> Alcotest.fail "no pair_check_ns histogram")
  | _ -> Alcotest.fail "no histograms object"

let test_canonical () =
  (* Equal metric states render to equal JSON strings. *)
  let mk () =
    let m = Dic.Metrics.create () in
    Dic.Metrics.incr m "b";
    Dic.Metrics.incr ~by:3 m "a";
    Dic.Metrics.observe_ns m "h" 100L;
    Dic.Metrics.observe_ns m "h" 5000L;
    Dic.Metrics.add_stage_seconds m "s1" 0.25;
    m
  in
  Alcotest.(check string) "canonical" (Json.to_string (Dic.Metrics.to_json (mk ())))
    (Json.to_string (Dic.Metrics.to_json (mk ())))

let test_counter_invariants () =
  let m = Dic.Metrics.create () in
  Alcotest.(check int) "absent counter is zero" 0 (Dic.Metrics.counter m "nope");
  Dic.Metrics.incr m "x";
  Dic.Metrics.incr ~by:41 m "x";
  Alcotest.(check int) "accumulates" 42 (Dic.Metrics.counter m "x");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: counters are monotonic (by < 0)") (fun () ->
      Dic.Metrics.incr ~by:(-1) m "x")

let test_merge () =
  let a = Dic.Metrics.create () and b = Dic.Metrics.create () in
  Dic.Metrics.incr ~by:2 a "n";
  Dic.Metrics.incr ~by:5 b "n";
  Dic.Metrics.observe_ns a "h" 10L;
  Dic.Metrics.observe_ns b "h" 20L;
  Dic.Metrics.merge_into ~into:a b;
  Alcotest.(check int) "counters added" 7 (Dic.Metrics.counter a "n");
  match Dic.Metrics.histogram a "h" with
  | Some s ->
    Alcotest.(check int) "observations added" 2 s.Dic.Metrics.h_count;
    Alcotest.(check bool) "sum added" true (s.Dic.Metrics.h_sum_ns = 30L)
  | None -> Alcotest.fail "histogram lost in merge"

(* ------------------------------------------------------------------ *)
(* Gauges and sliding windows                                          *)

let test_gauges () =
  let m = Dic.Metrics.create () in
  Alcotest.(check (option (float 0.))) "absent gauge" None (Dic.Metrics.gauge m "g");
  Dic.Metrics.set_gauge m "g" 2.5;
  Dic.Metrics.set_gauge m "g" 1.5;
  Alcotest.(check (option (float 0.))) "latest reading wins" (Some 1.5)
    (Dic.Metrics.gauge m "g");
  Dic.Metrics.set_gauge m "a" 0.25;
  Alcotest.(check (list (pair string (float 0.)))) "sorted by name"
    [ ("a", 0.25); ("g", 1.5) ] (Dic.Metrics.gauges m)

let test_gauge_merge () =
  let a = Dic.Metrics.create () and b = Dic.Metrics.create () in
  Dic.Metrics.set_gauge a "shared" 1.;
  Dic.Metrics.set_gauge a "only_a" 7.;
  Dic.Metrics.set_gauge b "shared" 2.;
  Dic.Metrics.merge_into ~into:a b;
  Alcotest.(check (option (float 0.))) "source reading wins" (Some 2.)
    (Dic.Metrics.gauge a "shared");
  Alcotest.(check (option (float 0.))) "destination-only survives" (Some 7.)
    (Dic.Metrics.gauge a "only_a")

let test_window_eviction () =
  let m = Dic.Metrics.create () in
  for i = 1 to 6 do
    Dic.Metrics.observe_window ~capacity:4 m "w" (float_of_int i)
  done;
  match Dic.Metrics.window m "w" with
  | None -> Alcotest.fail "window lost"
  | Some s ->
    Alcotest.(check int) "count includes evicted" 6 s.Dic.Metrics.w_count;
    Alcotest.(check int) "capacity kept" 4 s.Dic.Metrics.w_capacity;
    Alcotest.(check (array (float 0.))) "survivors oldest first"
      [| 3.; 4.; 5.; 6. |] s.Dic.Metrics.w_values;
    (* capacity only applies at creation: a later call with another
       capacity neither grows nor shrinks the ring *)
    Dic.Metrics.observe_window ~capacity:100 m "w" 7.;
    (match Dic.Metrics.window m "w" with
    | Some s' -> Alcotest.(check int) "capacity immutable" 4 s'.Dic.Metrics.w_capacity
    | None -> Alcotest.fail "window lost");
    Alcotest.(check (list string)) "window names sorted" [ "w" ]
      (Dic.Metrics.window_names m)

let test_window_quantiles () =
  let m = Dic.Metrics.create () in
  List.iter (Dic.Metrics.observe_window m "lat") [ 10.; 20.; 30.; 40. ];
  match Dic.Metrics.window m "lat" with
  | None -> Alcotest.fail "window lost"
  | Some s ->
    (* nearest-rank on 4 values: q=0.5 -> 2nd, q=0.95/0.99 -> 4th *)
    Alcotest.(check (float 0.)) "p50" 20. (Dic.Metrics.window_quantile s 0.5);
    Alcotest.(check (float 0.)) "p95" 40. (Dic.Metrics.window_quantile s 0.95);
    Alcotest.(check (float 0.)) "p99" 40. (Dic.Metrics.window_quantile s 0.99);
    let empty =
      { Dic.Metrics.w_count = 0; w_capacity = 4; w_values = [||] }
    in
    Alcotest.(check (float 0.)) "empty window" 0.
      (Dic.Metrics.window_quantile empty 0.5)

let test_window_merge () =
  (* Cross-domain discipline: shards merge in shard order into the
     destination; the destination's capacity wins and evicted counts
     carry over, so two equal shard sets render to equal JSON. *)
  let shard vs =
    let m = Dic.Metrics.create () in
    List.iter (Dic.Metrics.observe_window ~capacity:2 m "w") vs;
    m
  in
  let into = Dic.Metrics.create () in
  Dic.Metrics.observe_window ~capacity:8 into "w" 1.;
  List.iter
    (fun sh -> Dic.Metrics.merge_into ~into sh)
    [ shard [ 2.; 3.; 4. ]; shard [ 5. ] ];
  (match Dic.Metrics.window into "w" with
  | None -> Alcotest.fail "window lost"
  | Some s ->
    Alcotest.(check int) "destination capacity wins" 8 s.Dic.Metrics.w_capacity;
    (* shard 1 held [3;4] (2 evicted), shard 2 held [5] *)
    Alcotest.(check (array (float 0.))) "replayed oldest first in shard order"
      [| 1.; 3.; 4.; 5. |] s.Dic.Metrics.w_values;
    Alcotest.(check int) "evicted observations carried" 5 s.Dic.Metrics.w_count);
  let again = Dic.Metrics.create () in
  Dic.Metrics.observe_window ~capacity:8 again "w" 1.;
  List.iter
    (fun sh -> Dic.Metrics.merge_into ~into:again sh)
    [ shard [ 2.; 3.; 4. ]; shard [ 5. ] ];
  Alcotest.(check string) "deterministic across merges"
    (Json.to_string (Dic.Metrics.to_json into)) (Json.to_string (Dic.Metrics.to_json again))

let test_gauge_window_json () =
  (* gauges/windows members are always present (canonical shape), carry
     the observed values, and the engine's cache.hit_ratio gauge lands
     in the run metrics. *)
  let m = Dic.Metrics.create () in
  let v = Dic.Metrics.to_json m in
  (match (Json.member "gauges" v, Json.member "windows" v) with
  | Some (Json.Obj []), Some (Json.Obj []) -> ()
  | _ -> Alcotest.fail "empty state must render empty gauges/windows objects");
  Dic.Metrics.set_gauge m "g" 0.5;
  Dic.Metrics.observe_window m "w" 2.;
  let v = Dic.Metrics.to_json m in
  (match Json.member "gauges" v with
  | Some (Json.Obj [ ("g", Json.Num f) ]) ->
    Alcotest.(check (float 0.)) "gauge value" 0.5 f
  | _ -> Alcotest.fail "gauge missing from JSON");
  (match Json.member "windows" v with
  | Some (Json.Obj [ ("w", w) ]) ->
    List.iter
      (fun k ->
        if Json.member k w = None then Alcotest.fail ("window stats missing " ^ k))
      [ "capacity"; "count"; "len"; "mean"; "max"; "p50"; "p95"; "p99" ]
  | _ -> Alcotest.fail "window missing from JSON");
  let result = run_ok (workload ()) in
  match Json.member "gauges" (Dic.Metrics.to_json result.Dic.Engine.metrics) with
  | Some (Json.Obj kvs) ->
    Alcotest.(check bool) "engine records cache.hit_ratio" true
      (List.mem_assoc "cache.hit_ratio" kvs)
  | _ -> Alcotest.fail "run metrics without gauges"

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                                *)

let canonical_errors (r : Dic.Engine.result) =
  Dic.Report.errors r.Dic.Engine.report
  |> List.map (fun (v : Dic.Report.violation) ->
         (v.Dic.Report.rule, v.Dic.Report.context,
          Option.map
            (fun w -> (Geom.Rect.x0 w, Geom.Rect.y0 w, Geom.Rect.x1 w, Geom.Rect.y1 w))
            v.Dic.Report.where,
          v.Dic.Report.message))
  |> List.sort compare

let with_jobs jobs =
  { Dic.Engine.default_config with
    Dic.Engine.interactions =
      { Dic.Interactions.default_config with Dic.Interactions.jobs } }

let salted_workload () =
  let clean = Layoutgen.Cells.grid ~lambda ~nx:4 ~ny:3 in
  let margin = (4 * Layoutgen.Cells.pitch_x * lambda) + (6 * lambda) in
  let salted, _ =
    Layoutgen.Inject.apply clean
      (Layoutgen.Inject.standard_batch ~lambda ~at:(margin, 0) ~step:(10 * lambda))
  in
  salted

let test_jobs_deterministic () =
  List.iter
    (fun file ->
      let serial = run_ok ~config:(with_jobs 1) file in
      let parallel = run_ok ~config:(with_jobs 4) file in
      Alcotest.(check bool) "some errors to compare" true
        (canonical_errors serial <> []);
      let canon =
        Alcotest.testable
          (fun ppf (rule, ctx, _, _) -> Format.fprintf ppf "%s in %s" rule ctx)
          ( = )
      in
      Alcotest.(check (list canon)) "identical classified error sets"
        (canonical_errors serial) (canonical_errors parallel);
      (* Stronger than the acceptance criterion: the raw report lists
         are identical, not merely equal as sets. *)
      Alcotest.(check bool) "identical report order" true
        (serial.Dic.Engine.report = parallel.Dic.Engine.report))
    [ salted_workload ();
      (Layoutgen.Pathology.fig8_accidental ~lambda).Layoutgen.Pathology.file;
      (Layoutgen.Pathology.fig2_figures_illegal ~lambda).Layoutgen.Pathology.file ]

let test_jobs_auto () =
  (* jobs = 0 resolves to the runtime's recommendation and still runs. *)
  let r = run_ok ~config:(with_jobs 0) (workload ()) in
  Alcotest.(check bool) "completed" true
    (Dic.Report.count r.Dic.Engine.report >= 0)

(* [Parallel.run] runs no more domains than it has chunks: one chunk,
   an empty worklist or [jobs = 1] stays on the calling domain (tid 0)
   alone.  Results come back in worklist order either way. *)
let test_parallel_clamp () =
  let domains ~jobs ~n =
    let tids = ref [] in
    let out =
      Dic.Parallel.run ~jobs ~stage:"test" ~weight:(fun _ -> 1) ~n
        ~worker:(fun tid -> tid)
        ~chunk:(fun _ _ _ ~lo ~hi -> List.init (hi - lo) (fun i -> lo + i))
        ~merge:(fun tid -> tids := tid :: !tids)
        ()
    in
    Alcotest.(check (list int))
      (Printf.sprintf "jobs=%d n=%d: every task once, in order" jobs n)
      (List.init n Fun.id) (List.concat out);
    List.rev !tids
  in
  Alcotest.(check (list int)) "one chunk spawns nothing" [ 0 ] (domains ~jobs:4 ~n:1);
  Alcotest.(check (list int)) "empty worklist spawns nothing" [ 0 ] (domains ~jobs:4 ~n:0);
  Alcotest.(check (list int)) "jobs=1 spawns nothing" [ 0 ] (domains ~jobs:1 ~n:100);
  Alcotest.(check (list int)) "no more domains than chunks" [ 0; 1; 2 ] (domains ~jobs:8 ~n:3)

let test_stats_merge_totals () =
  (* Per-cell pair totals are independent of the domain count (only the
     memo hit/miss split may shift). *)
  let totals (r : Dic.Engine.result) =
    let s = r.Dic.Engine.interaction_stats in
    Hashtbl.fold
      (fun (la, lb) (c : Dic.Interactions.cell_stats) acc ->
        ((Tech.Layer.index la, Tech.Layer.index lb),
         (c.Dic.Interactions.pairs, c.Dic.Interactions.checked))
        :: acc)
      s.Dic.Interactions.cells []
    |> List.sort compare
  in
  let file = salted_workload () in
  let serial = run_ok ~config:(with_jobs 1) file in
  let parallel = run_ok ~config:(with_jobs 3) file in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "cell totals invariant" (totals serial) (totals parallel)

(* Every enumerated interaction pair ends in exactly one outcome: it
   is judged against a rule, or skipped for having no rule, for being
   on one net, or for being inside one device.  Must hold whatever the
   domain count and whether or not immunity certificates prune work.
   The certificate and definition-cache counters reconcile the same
   way, and every verdict-bearing count is the same at jobs 1 and 2. *)
let test_interaction_counters_reconcile () =
  let file = Layoutgen.Pla.tier ~lambda ~rows:32 ~cols:64 in
  let saved = Dic.Deckcheck.enabled () in
  Fun.protect ~finally:(fun () -> Dic.Deckcheck.set_enabled saved) (fun () ->
      List.iter
        (fun certs ->
          Dic.Deckcheck.set_enabled certs;
          let counts jobs =
            let m = (run_ok ~config:(with_jobs jobs) file).Dic.Engine.metrics in
            let c = Dic.Metrics.counter m in
            let label = Printf.sprintf "jobs=%d certs=%b" jobs certs in
            Alcotest.(check bool) (label ^ ": pairs enumerated") true
              (c "interactions.pairs" > 0);
            Alcotest.(check int)
              (label ^ ": pairs = checked + skipped_no_rule + skipped_same_net + skipped_device")
              (c "interactions.pairs")
              (c "interactions.checked" + c "interactions.skipped_no_rule"
              + c "interactions.skipped_same_net" + c "interactions.skipped_device");
            Alcotest.(check int)
              (label ^ ": certified_skips = element skips + task skips")
              (c "analysis.certified_skips")
              (c "analysis.certified_element_skips" + c "analysis.certified_task_skips");
            Alcotest.(check int)
              (label ^ ": symbols_total = symbols_reused + defs_computed")
              (c "cache.symbols_total")
              (c "cache.symbols_reused" + c "cache.defs_computed");
            List.map c
              [ "analysis.certified_element_skips"; "analysis.certified_task_skips";
                "interactions.pairs" ]
          in
          Alcotest.(check (list int))
            (Printf.sprintf "certs=%b: element skips, task skips, pairs jobs-invariant" certs)
            (counts 1) (counts 2))
        [ true; false ])

let () =
  Alcotest.run "metrics"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "canonical" `Quick test_canonical ]);
      ("counters",
       [ Alcotest.test_case "invariants" `Quick test_counter_invariants;
         Alcotest.test_case "merge" `Quick test_merge ]);
      ("gauges",
       [ Alcotest.test_case "readings" `Quick test_gauges;
         Alcotest.test_case "merge" `Quick test_gauge_merge ]);
      ("windows",
       [ Alcotest.test_case "eviction" `Quick test_window_eviction;
         Alcotest.test_case "quantiles" `Quick test_window_quantiles;
         Alcotest.test_case "merge" `Quick test_window_merge;
         Alcotest.test_case "json" `Quick test_gauge_window_json ]);
      ("parallel",
       [ Alcotest.test_case "deterministic" `Quick test_jobs_deterministic;
         Alcotest.test_case "auto jobs" `Quick test_jobs_auto;
         Alcotest.test_case "domain clamp" `Quick test_parallel_clamp;
         Alcotest.test_case "stats totals" `Quick test_stats_merge_totals;
         Alcotest.test_case "interaction pairs reconcile" `Quick
           test_interaction_counters_reconcile ]) ]

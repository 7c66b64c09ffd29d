(* Engine sessions: persistent-cache reuse and invalidation, the
   cold/warm determinism invariant, corruption fallback, the serve
   protocol, and the minimal JSON codec under it. *)

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

(* ------------------------------------------------------------------ *)
(* Scratch cache directories                                           *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir = Filename.temp_file "dic_test_cache" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(* The multi-result and the primary deck's reuse. *)
let check_ok engine file =
  match Dic.Engine.check engine file with
  | Ok multi -> (multi, snd (Dic.Engine.primary multi))
  | Error e -> Alcotest.fail e

let report_text multi = Dic.Engine.render ~view:`Single multi

(* One deck of a set rendered as if it were the whole check. *)
let deck_text (m : Dic.Engine.multi) dr = report_text { m with Dic.Engine.results = [ dr ] }

(* A workload with real interactions and a known violation, so the
   report compared for byte-identity is not trivially empty. *)
let workload () =
  let clean = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  fst
    (Layoutgen.Inject.apply clean
       [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(-30 * lambda, -30 * lambda) ])

(* ------------------------------------------------------------------ *)
(* Persistent cache: reuse and determinism                             *)

let test_warm_recheck_reuses_and_matches () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, r0 = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "cold run computes everything" 0 r0.Dic.Engine.symbols_reused;
      (* A brand-new engine over the same directory: everything comes
         back from disk, and the report is byte-identical. *)
      let warm, r1 = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "all definitions reused" r1.Dic.Engine.symbols_total
        r1.Dic.Engine.symbols_reused;
      Alcotest.(check bool) "definitions came from disk" true
        (r1.Dic.Engine.defs_from_disk > 0);
      Alcotest.(check bool) "memo entries came from disk" true
        (r1.Dic.Engine.memo_loaded > 0);
      Alcotest.(check string) "warm report byte-identical" (report_text cold)
        (report_text warm))

let test_warm_recheck_matches_at_jobs4 () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      (* [jobs] is excluded from the environment digest, so a parallel
         warm run shares the sequential run's cache — and must still
         produce the same bytes. *)
      let e4 = Dic.Engine.with_jobs (Dic.Engine.create ~cache_dir:dir rules) 4 in
      let warm, r1 = check_ok e4 file in
      Alcotest.(check bool) "parallel run hits the sequential cache" true
        (r1.Dic.Engine.symbols_reused > 0);
      Alcotest.(check string) "jobs=4 warm report byte-identical" (report_text cold)
        (report_text warm))

let test_symbol_edit_invalidates_only_that_symbol () =
  with_cache_dir (fun dir ->
      let file = Layoutgen.Cells.chain ~lambda 3 in
      ignore (check_ok (Dic.Engine.create ~cache_dir:dir rules) file);
      (* Edit the top level only. *)
      let salted, _ =
        Layoutgen.Inject.apply file
          [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(0, -20 * lambda) ]
      in
      let multi, r = check_ok (Dic.Engine.create ~cache_dir:dir rules) salted in
      let result, _ = Dic.Engine.primary multi in
      Alcotest.(check int) "all but the edited root reused"
        (r.Dic.Engine.symbols_total - 1) r.Dic.Engine.symbols_reused;
      Alcotest.(check bool) "the new defect is found" true
        (List.exists
           (fun (v : Dic.Report.violation) ->
             String.length v.Dic.Report.rule >= 5
             && String.sub v.Dic.Report.rule 0 5 = "width")
           (Dic.Report.errors result.Dic.Engine.report)))

let test_rules_change_invalidates () =
  with_cache_dir (fun dir ->
      let file = Layoutgen.Cells.chain ~lambda 2 in
      ignore (check_ok (Dic.Engine.create ~cache_dir:dir rules) file);
      let strict = { rules with Tech.Rules.width_metal = 4 * lambda } in
      let _, r = check_ok (Dic.Engine.create ~cache_dir:dir strict) file in
      Alcotest.(check int) "different rules miss the cache" 0 r.Dic.Engine.symbols_reused)

let test_config_change_invalidates () =
  with_cache_dir (fun dir ->
      let file = Layoutgen.Cells.chain ~lambda 2 in
      ignore (check_ok (Dic.Engine.create ~cache_dir:dir rules) file);
      let e = Dic.Engine.with_same_net (Dic.Engine.create ~cache_dir:dir rules) true in
      let _, r = check_ok e file in
      Alcotest.(check int) "different config misses the cache" 0
        r.Dic.Engine.symbols_reused;
      (* But jobs is cost-only: it does not change the environment. *)
      let e' = Dic.Engine.with_jobs (Dic.Engine.create ~cache_dir:dir rules) 3 in
      let _, r' = check_ok e' file in
      Alcotest.(check int) "jobs alone keeps the cache" r'.Dic.Engine.symbols_total
        r'.Dic.Engine.symbols_reused)

let test_corrupted_cache_falls_back_to_cold () =
  with_cache_dir (fun dir ->
      let file = workload () in
      let cold, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      (* Stomp every cache file with garbage. *)
      let rec stomp path =
        if Sys.is_directory path then
          Array.iter (fun n -> stomp (Filename.concat path n)) (Sys.readdir path)
        else Out_channel.with_open_bin path (fun oc -> output_string oc "garbage")
      in
      stomp dir;
      let warm, r = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      Alcotest.(check int) "nothing reused from a corrupt cache" 0
        r.Dic.Engine.symbols_reused;
      Alcotest.(check int) "no memo loaded from a corrupt cache" 0
        r.Dic.Engine.memo_loaded;
      Alcotest.(check string) "run still correct" (report_text cold) (report_text warm))

let test_in_memory_session_reuse () =
  (* No cache directory at all: the in-memory session still reuses. *)
  let e = Dic.Engine.create rules in
  let file = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  let cold, r0 = check_ok e file in
  Alcotest.(check int) "cold" 0 r0.Dic.Engine.symbols_reused;
  let warm, r1 = check_ok e file in
  Alcotest.(check int) "warm reuses all" r1.Dic.Engine.symbols_total
    r1.Dic.Engine.symbols_reused;
  Alcotest.(check int) "nothing read from disk" 0 r1.Dic.Engine.defs_from_disk;
  Alcotest.(check string) "same bytes" (report_text cold) (report_text warm)

(* ------------------------------------------------------------------ *)
(* Whole-pipeline parallelism: byte-identity across jobs               *)

module Json = Dic.Json

(* Enough distinct definitions with real element work that the
   per-definition stages genuinely fan out (stage parallelism wants at
   least two fresh definitions), plus an injected defect so the report
   compared for identity is not empty. *)
let stage_workload () =
  fst
    (Layoutgen.Inject.apply
       (Layoutgen.Pla.tier ~lambda ~rows:4 ~cols:6)
       [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(-40 * lambda, -40 * lambda) ])

(* The stats JSON *shape*: every number zeroed and the timing-dependent
   histogram bucket lists emptied, leaving stage names and order,
   counter keys, histogram/gauge/cost keys.  Counter values may
   legitimately vary with [jobs] (the memo hit/miss split); the shape
   may not. *)
let stats_shape m =
  let rec zero = function
    | Json.Num _ -> Json.Num 0.
    | Json.Arr l -> Json.Arr (List.map zero l)
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) -> (k, if k = "buckets" then Json.Arr [] else zero v))
           kvs)
    | v -> v
  in
  Json.to_string (zero (Dic.Metrics.to_json m))

let check_with_metrics engine file =
  let m = Dic.Metrics.create () in
  match Dic.Engine.check ~metrics:m engine file with
  | Ok multi -> (multi, m)
  | Error e -> Alcotest.fail e

let test_pipeline_bytes_across_jobs () =
  let file = stage_workload () in
  let run jobs =
    let e = Dic.Engine.with_jobs (Dic.Engine.create rules) jobs in
    let cold, mc = check_with_metrics e file in
    let warm, mw = check_with_metrics e file in
    ( report_text cold,
      Json.to_string (Dic.Engine.sarif ~view:`Single ~uri:"design.cif" cold),
      stats_shape mc, report_text warm, stats_shape mw )
  in
  let r1, s1, j1, w1, jw1 = run 1 in
  Alcotest.(check bool) "workload has the injected violation" true
    (Astring_contains.contains r1 "width");
  List.iter
    (fun jobs ->
      let r, s, j, w, jw = run jobs in
      let name what = Printf.sprintf "%s at jobs=%d" what jobs in
      Alcotest.(check string) (name "cold report bytes") r1 r;
      Alcotest.(check string) (name "SARIF bytes") s1 s;
      Alcotest.(check string) (name "stats JSON shape") j1 j;
      Alcotest.(check string) (name "warm report bytes") w1 w;
      Alcotest.(check string) (name "warm stats shape") jw1 jw)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Incremental lint in sessions                                        *)

let test_lint_replayed_in_session () =
  let e = Dic.Engine.with_lint (Dic.Engine.create rules) true in
  let file = stage_workload () in
  let cold, mc = check_with_metrics e file in
  let warm, mw = check_with_metrics e file in
  Alcotest.(check bool) "cold run computes the model pass" true
    (Dic.Metrics.counter mc "lint.defs_computed" > 0);
  Alcotest.(check int) "cold run replays nothing" 0
    (Dic.Metrics.counter mc "lint.defs_replayed");
  Alcotest.(check int) "warm run computes nothing"
    0
    (Dic.Metrics.counter mw "lint.defs_computed");
  Alcotest.(check int) "warm run replays every definition"
    (Dic.Metrics.counter mc "lint.defs_computed")
    (Dic.Metrics.counter mw "lint.defs_replayed");
  Alcotest.(check string) "lint-bearing report byte-identical"
    (report_text cold) (report_text warm)

(* ------------------------------------------------------------------ *)
(* Multi-deck sessions                                                 *)

let multi_ok engine file =
  match Dic.Engine.check engine file with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let merged_text = Dic.Engine.render ~view:`Merged

(* A second deck with a tighter metal width: the 3-lambda rails violate
   it, so the two decks genuinely disagree. *)
let strict_deck () =
  Dic.Engine.deck ~label:"strict"
    { rules with Tech.Rules.width_metal = 4 * lambda; Tech.Rules.name = "strict" }

let base_deck () = Dic.Engine.deck ~label:"base" rules

let test_multideck_n1_matches_single () =
  let file = workload () in
  let plain, _ = check_ok (Dic.Engine.create rules) file in
  let m = multi_ok (Dic.Engine.create ~decks:[ base_deck () ] rules) file in
  Alcotest.(check string) "decks:[d] = plain engine, byte for byte"
    (report_text plain) (report_text m);
  Alcotest.(check int) "one summary" 1
    (List.length m.Dic.Engine.merged.Dic.Multireport.summaries)

let test_multideck_per_deck_matches_alone () =
  let file = workload () in
  let decks = [ base_deck (); strict_deck () ] in
  let m = multi_ok (Dic.Engine.create ~decks rules) file in
  List.iter2
    (fun (d : Dic.Engine.deck) (dr : Dic.Engine.deck_result) ->
      let alone, _ = check_ok (Dic.Engine.create d.Dic.Engine.dk_rules) file in
      Alcotest.(check string)
        (d.Dic.Engine.dk_label ^ " in the set = checked alone")
        (report_text alone) (deck_text m dr))
    decks m.Dic.Engine.results;
  (* The strict deck flags the rails; the base deck does not — the
     verdict distinguishes them. *)
  Alcotest.(check (list string)) "compliant decks" []
    (List.filter (fun l -> l = "strict")
       (Dic.Multireport.compliant m.Dic.Engine.merged))

let test_multideck_merged_bytes_across_jobs () =
  let file = workload () in
  let decks = [ base_deck (); strict_deck () ] in
  let m1 =
    multi_ok (Dic.Engine.with_jobs (Dic.Engine.create ~decks rules) 1) file
  in
  let m4 =
    multi_ok (Dic.Engine.with_jobs (Dic.Engine.create ~decks rules) 4) file
  in
  Alcotest.(check string) "merged report identical at jobs 1 and 4"
    (merged_text m1) (merged_text m4)

let test_multideck_sarif_across_jobs () =
  let file = stage_workload () in
  let decks = [ base_deck (); strict_deck () ] in
  let sarif jobs =
    let m =
      multi_ok (Dic.Engine.with_jobs (Dic.Engine.create ~decks rules) jobs) file
    in
    Json.to_string (Dic.Engine.sarif ~view:`Merged ~uri:"design.cif" m)
  in
  let base = sarif 1 in
  Alcotest.(check bool) "SARIF is substantial" true (String.length base > 100);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "multi-deck SARIF bytes at jobs=%d" jobs)
        base (sarif jobs))
    [ 2; 4; 8 ]

let test_multideck_cache_independence () =
  with_cache_dir (fun dir ->
      let file = workload () in
      (* Warm deck A alone, then check the pair over the same cache:
         A replays fully, B computes fully — warming A never primed B. *)
      let cold_a, _ = check_ok (Dic.Engine.create ~cache_dir:dir rules) file in
      let decks = [ base_deck (); strict_deck () ] in
      let m = multi_ok (Dic.Engine.create ~cache_dir:dir ~decks rules) file in
      (match m.Dic.Engine.results with
      | [ a; b ] ->
        Alcotest.(check int) "deck A fully reused"
          a.Dic.Engine.dr_reuse.Dic.Engine.symbols_total
          a.Dic.Engine.dr_reuse.Dic.Engine.symbols_reused;
        Alcotest.(check int) "deck B untouched by A's warmth" 0
          b.Dic.Engine.dr_reuse.Dic.Engine.symbols_reused;
        Alcotest.(check string) "A's warm report = A's cold report"
          (report_text cold_a) (deck_text m a)
      | _ -> Alcotest.fail "expected two deck results");
      (* Round three: both decks warm now. *)
      let m2 = multi_ok (Dic.Engine.create ~cache_dir:dir ~decks rules) file in
      List.iter
        (fun (dr : Dic.Engine.deck_result) ->
          Alcotest.(check int)
            (dr.Dic.Engine.dr_deck.Dic.Engine.dk_label ^ " fully warm")
            dr.Dic.Engine.dr_reuse.Dic.Engine.symbols_total
            dr.Dic.Engine.dr_reuse.Dic.Engine.symbols_reused)
        m2.Dic.Engine.results;
      Alcotest.(check string) "merged bytes cold = warm" (merged_text m)
        (merged_text m2))

let test_multideck_label_dedupe () =
  match
    Dic.Engine.dedupe_labels
      [ Dic.Engine.deck ~label:"x" rules; Dic.Engine.deck ~label:"x" rules;
        Dic.Engine.deck ~label:"x" rules ]
  with
  | [ a; b; c ] ->
    Alcotest.(check string) "first keeps the name" "x" a.Dic.Engine.dk_label;
    Alcotest.(check string) "second suffixed" "x#2" b.Dic.Engine.dk_label;
    Alcotest.(check string) "third suffixed" "x#3" c.Dic.Engine.dk_label
  | _ -> Alcotest.fail "dedupe dropped decks"

(* ------------------------------------------------------------------ *)
(* Serve protocol                                                      *)

let reply_field reply name =
  match Dic.Json.parse reply with
  | Error e -> Alcotest.fail ("reply is not JSON: " ^ e)
  | Ok v -> Dic.Json.member name v

let num_field reply name =
  match Option.bind (reply_field reply name) Dic.Json.num with
  | Some n -> int_of_float n
  | None -> Alcotest.fail (Printf.sprintf "reply has no numeric %S" name)

let test_serve_round_trip () =
  let server = Dic.Serve.create rules in
  let src = Cif.Print.to_string (Layoutgen.Cells.chain ~lambda 2) in
  let request =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str src);
           ("stats", Dic.Json.Bool true) ])
  in
  let reply = Dic.Serve.handle_line server request in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  Alcotest.(check int) "id echoed" 1 (num_field reply "id");
  Alcotest.(check int) "clean design exits 0" 0 (num_field reply "exit");
  (match Option.bind (reply_field reply "report") Dic.Json.str with
  | Some text -> Alcotest.(check bool) "report text present" true (String.length text > 0)
  | None -> Alcotest.fail "no report in reply");
  (match reply_field reply "metrics" with
  | Some (Dic.Json.Obj _) -> ()
  | _ -> Alcotest.fail "stats:true must embed a metrics object");
  (* Same design again: the warm engine answers from its session. *)
  let reply2 = Dic.Serve.handle_line server request in
  Alcotest.(check int) "second request reuses the session"
    (num_field reply2 "symbols_total")
    (num_field reply2 "symbols_reused")

let test_serve_matches_engine_bytes () =
  let file = workload () in
  let src = Cif.Print.to_string file in
  let server = Dic.Serve.create rules in
  let reply =
    Dic.Serve.handle_line server
      (Dic.Json.to_string (Dic.Json.Obj [ ("cif", Dic.Json.Str src) ]))
  in
  let served =
    match Option.bind (reply_field reply "report") Dic.Json.str with
    | Some text -> text
    | None -> Alcotest.fail "no report in reply"
  in
  (* Checking the same text directly must agree byte-for-byte: serve is
     a transport, not a different checker.  (Text, not the AST — parsing
     attaches source positions that show up in the report.) *)
  let direct =
    match Dic.Engine.check_string (Dic.Engine.create rules) src with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "serve report = direct report" (report_text direct) served

let test_serve_malformed_request () =
  let server = Dic.Serve.create rules in
  let reply = Dic.Serve.handle_line server "{ not json" in
  Alcotest.(check (option bool)) "ok:false" (Some false)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  Alcotest.(check int) "exit 2" 2 (num_field reply "exit");
  (match Option.bind (reply_field reply "error") Dic.Json.str with
  | Some _ -> ()
  | None -> Alcotest.fail "malformed request must carry an error string");
  (* The server survives and answers the next request. *)
  let missing = Dic.Serve.handle_line server "{\"id\": 7}" in
  Alcotest.(check int) "id echoed on error" 7 (num_field missing "id");
  Alcotest.(check (option bool)) "missing source rejected" (Some false)
    (Option.bind (reply_field missing "ok") Dic.Json.bool)

let test_serve_decks_round_trip () =
  let server = Dic.Serve.create rules in
  let src = Cif.Print.to_string (workload ()) in
  let strict =
    { rules with Tech.Rules.width_metal = 4 * lambda; Tech.Rules.name = "strict" }
  in
  let deck_obj label r =
    Dic.Json.Obj
      [ ("label", Dic.Json.Str label);
        ("rules", Dic.Json.Str (Tech.Rules.to_string r)) ]
  in
  let request =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str src);
           ("decks",
            Dic.Json.Arr [ deck_obj "base" rules; deck_obj "strict" strict ]) ])
  in
  let reply = Dic.Serve.handle_line server request in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  (* Per-deck summaries ride in the reply, in deck order. *)
  (match Option.bind (reply_field reply "decks") Dic.Json.arr with
  | Some [ a; b ] ->
    let label j = Option.bind (Dic.Json.member "label" j) Dic.Json.str in
    let exit j =
      Option.map int_of_float (Option.bind (Dic.Json.member "exit" j) Dic.Json.num)
    in
    Alcotest.(check (option string)) "first label" (Some "base") (label a);
    Alcotest.(check (option string)) "second label" (Some "strict") (label b);
    (* The strict deck flags the rails: its exit differs from base's. *)
    Alcotest.(check (option int)) "strict deck fails" (Some 1) (exit b)
  | _ -> Alcotest.fail "reply must carry two deck summaries");
  (match Option.bind (reply_field reply "compliant") Dic.Json.arr with
  | Some labels ->
    Alcotest.(check bool) "strict not compliant" false
      (List.exists (fun j -> Dic.Json.str j = Some "strict") labels)
  | None -> Alcotest.fail "reply must carry the compliant list");
  (* The merged report annotates deck membership. *)
  (match Option.bind (reply_field reply "report") Dic.Json.str with
  | Some text ->
    Alcotest.(check bool) "membership annotations present" true
      (Astring_contains.contains text "[decks:")
  | None -> Alcotest.fail "no report in reply");
  Alcotest.(check int) "exit is the worst deck's" 1 (num_field reply "exit");
  (* A deckless request on the same server keeps the historical single-
     deck reply shape: no "decks" member at all. *)
  let plain =
    Dic.Serve.handle_line server
      (Dic.Json.to_string (Dic.Json.Obj [ ("cif", Dic.Json.Str src) ]))
  in
  Alcotest.(check bool) "single-deck reply has no decks member" true
    (reply_field plain "decks" = None)

let test_serve_prometheus_stats () =
  let server = Dic.Serve.create rules in
  let reply =
    Dic.Serve.handle_line server
      "{\"admin\":\"stats\",\"format\":\"prometheus\",\"id\":\"p\"}"
  in
  (match Option.bind (reply_field reply "prometheus") Dic.Json.str with
  | Some text ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) needle true (Astring_contains.contains text needle))
      [ "# HELP dicheck_uptime_seconds"; "# TYPE dicheck_requests_total counter";
        "dicheck_workers"; "quantile=\"0.99\"" ]
  | None -> Alcotest.fail "no prometheus text in reply");
  (* Unknown formats are refused, not silently defaulted. *)
  let bad =
    Dic.Serve.handle_line server "{\"admin\":\"stats\",\"format\":\"xml\"}"
  in
  Alcotest.(check (option bool)) "unknown format refused" (Some false)
    (Option.bind (reply_field bad "ok") Dic.Json.bool)

let test_serve_bad_cif_is_an_error_reply () =
  let server = Dic.Serve.create rules in
  let reply =
    Dic.Serve.handle_line server
      (Dic.Json.to_string
         (Dic.Json.Obj [ ("id", Dic.Json.Num 3.); ("cif", Dic.Json.Str "DS 1 bogus;") ]))
  in
  Alcotest.(check (option bool)) "ok:false" (Some false)
    (Option.bind (reply_field reply "ok") Dic.Json.bool);
  Alcotest.(check int) "id echoed" 3 (num_field reply "id")

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let v =
    Dic.Json.Obj
      [ ("a", Dic.Json.Arr [ Dic.Json.Num 1.; Dic.Json.Num (-2.5); Dic.Json.Null ]);
        ("s", Dic.Json.Str "line\nbreak \"quoted\" \\ tab\t");
        ("t", Dic.Json.Bool true); ("f", Dic.Json.Bool false);
        ("nested", Dic.Json.Obj [ ("empty", Dic.Json.Arr []) ]) ]
  in
  match Dic.Json.parse (Dic.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "print/parse round trip" true (v = v')
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Dic.Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_escapes () =
  match Dic.Json.parse "\"\\u0041\\u00e9\\ud83d\\ude00\\/\"" with
  | Ok (Dic.Json.Str s) ->
    Alcotest.(check string) "unicode escapes decode to UTF-8" "A\xc3\xa9\xf0\x9f\x98\x80/" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

let test_json_rejects_raw_control_bytes () =
  match Dic.Json.parse "\"a\001b\"" with
  | Ok _ -> Alcotest.fail "accepted a raw control byte inside a string"
  | Error _ -> ()

let test_json_rejects_non_hex_escape () =
  List.iter
    (fun s ->
      match Dic.Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ "\"\\u1_23\""; "\"\\u+123\""; "\"\\u12g4\"" ]

let test_json_non_finite_prints_null () =
  Alcotest.(check string) "NaN and infinities print as null" "[null,null,null,1.5]"
    (Dic.Json.to_string
       (Dic.Json.Arr
          [ Dic.Json.Num Float.nan; Dic.Json.Num Float.infinity;
            Dic.Json.Num Float.neg_infinity; Dic.Json.Num 1.5 ]))

(* ------------------------------------------------------------------ *)
(* Exit policy                                                         *)

(* The one 0/1 policy both front ends apply, row by row. *)
let test_exit_policy () =
  let stage = Dic.Report.Elements and context = "TOP" in
  let error = Dic.Report.error ~stage ~rule:"width.NM" ~context "e" in
  let warning = Dic.Report.warning ~stage ~rule:"erc.floating-net" ~context "w" in
  let info = Dic.Report.info ~stage ~rule:"netlist.locality" ~context "i" in
  let lint = Dic.Report.warning ~stage ~rule:"lint.D005" ~context "l" in
  List.iter
    (fun (name, violations, werror, lint_werror, expected) ->
      Alcotest.(check int) name expected
        (Dic.Report.exit_code ~werror ~lint_werror { Dic.Report.violations }))
    [ ("clean", [], true, true, 0);
      ("info only", [ info ], true, true, 0);
      ("error", [ error ], false, false, 1);
      ("warning", [ warning ], false, false, 0);
      ("warning under werror", [ warning ], true, false, 1);
      ("warning under lint_werror", [ warning ], false, true, 0);
      ("lint hit", [ lint ], false, false, 0);
      ("lint hit under lint_werror", [ lint ], false, true, 1);
      ("lint hit under werror", [ lint ], true, false, 1) ]

(* A deck set exits with its worst deck's code; each deck keeps its own. *)
let test_exit_worst_deck () =
  let werror = false and lint_werror = false in
  let clean =
    multi_ok
      (Dic.Engine.create ~decks:[ base_deck (); strict_deck () ] rules)
      (Layoutgen.Cells.chain ~lambda 2)
  in
  Alcotest.(check (list int)) "strict deck alone fails" [ 0; 1 ]
    (Dic.Engine.deck_exits ~werror ~lint_werror clean);
  Alcotest.(check int) "worst deck's code" 1
    (Dic.Engine.exit_code ~werror ~lint_werror clean)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [ ( "cache",
        [ Alcotest.test_case "warm recheck reuses and matches" `Quick
            test_warm_recheck_reuses_and_matches;
          Alcotest.test_case "warm recheck matches at jobs=4" `Quick
            test_warm_recheck_matches_at_jobs4;
          Alcotest.test_case "symbol edit invalidates only that symbol" `Quick
            test_symbol_edit_invalidates_only_that_symbol;
          Alcotest.test_case "rules change invalidates" `Quick test_rules_change_invalidates;
          Alcotest.test_case "config change invalidates, jobs does not" `Quick
            test_config_change_invalidates;
          Alcotest.test_case "corrupted cache falls back to cold" `Quick
            test_corrupted_cache_falls_back_to_cold;
          Alcotest.test_case "in-memory session reuse" `Quick test_in_memory_session_reuse ] );
      ( "parallel",
        [ Alcotest.test_case "report/SARIF/stats bytes across jobs" `Quick
            test_pipeline_bytes_across_jobs;
          Alcotest.test_case "lint replayed within a session" `Quick
            test_lint_replayed_in_session ] );
      ( "multideck",
        [ Alcotest.test_case "N=1 deck set = single engine bytes" `Quick
            test_multideck_n1_matches_single;
          Alcotest.test_case "each deck = checked alone" `Quick
            test_multideck_per_deck_matches_alone;
          Alcotest.test_case "merged bytes stable across jobs" `Quick
            test_multideck_merged_bytes_across_jobs;
          Alcotest.test_case "multi-deck SARIF bytes across jobs" `Quick
            test_multideck_sarif_across_jobs;
          Alcotest.test_case "per-deck cache independence" `Quick
            test_multideck_cache_independence;
          Alcotest.test_case "label dedupe" `Quick test_multideck_label_dedupe ] );
      ( "serve",
        [ Alcotest.test_case "round trip" `Quick test_serve_round_trip;
          Alcotest.test_case "serve report = engine report" `Quick
            test_serve_matches_engine_bytes;
          Alcotest.test_case "decks round trip" `Quick test_serve_decks_round_trip;
          Alcotest.test_case "prometheus stats format" `Quick
            test_serve_prometheus_stats;
          Alcotest.test_case "malformed request" `Quick test_serve_malformed_request;
          Alcotest.test_case "bad CIF is an error reply" `Quick
            test_serve_bad_cif_is_an_error_reply ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "escape decoding" `Quick test_json_escapes;
          Alcotest.test_case "rejects raw control bytes" `Quick
            test_json_rejects_raw_control_bytes;
          Alcotest.test_case "rejects non-hex unicode escapes" `Quick
            test_json_rejects_non_hex_escape;
          Alcotest.test_case "non-finite numbers print as null" `Quick
            test_json_non_finite_prints_null ] );
      ( "exit",
        [ Alcotest.test_case "policy table" `Quick test_exit_policy;
          Alcotest.test_case "worst deck" `Quick test_exit_worst_deck ] ) ]

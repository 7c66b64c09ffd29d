(* The serve daemon driven in-process with mocked clients, in the
   state-transition style of SNIPPETS §1: each scenario asserts what
   the pool and the cache did at every step (stats counters, reuse
   fields, report bytes), not just the final replies.

   Scenarios: concurrent clients vs one-shot byte-identity, warm-cache
   transitions across requests, superseded-id cancellation (queued and
   in-flight), backpressure, a malformed line mid-stream, crash at
   request N + restart recovering the warm cache from disk, the
   shutdown handshake, and the lint_werror / lint_counts reply fields. *)

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
  let dir = Filename.temp_file "dic_test_serve" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Real interactions and a known violation, so byte-identity is not
   trivially comparing empty reports. *)
let workload () =
  let clean = Layoutgen.Cells.grid ~lambda ~nx:3 ~ny:2 in
  fst
    (Layoutgen.Inject.apply clean
       [ Layoutgen.Inject.narrow_poly_wire ~lambda ~at:(-30 * lambda, -30 * lambda) ])

let workload_cif () = Cif.Print.to_string (workload ())

(* A second, structurally different design (different verdicts), for
   the supersession scenario. *)
let clean_cif () = Cif.Print.to_string (Layoutgen.Cells.chain ~lambda 2)

(* Geometrically clean, one definition never instantiated: lint D003
   fires (warning), nothing else. *)
let orphan_cif () =
  let module B = Layoutgen.Builder in
  let sym id name =
    B.symbol ~id ~name [ B.box ~layer:"NM" 0 0 (4 * lambda) (4 * lambda) ] []
  in
  Cif.Print.to_string
    (B.file ~symbols:[ sym 1 "used"; sym 2 "orphan" ] ~top_calls:[ B.call 1 ] ())

(* The bytes one-shot [dicheck] prints for this CIF text: the
   determinism bar every daemon reply is held to.  Parsed like the
   CLI parses its input file, so source locations match. *)
let one_shot_text src =
  match Dic.Engine.check_string (Dic.Engine.create rules) src with
  | Ok multi -> Dic.Engine.render ~view:`Single multi
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Mocked clients                                                      *)

type client = { c_lock : Mutex.t; mutable c_replies : string list (* oldest first *) }

let client () = { c_lock = Mutex.create (); c_replies = [] }

let mock_conn server c =
  Dic.Serve.connect server ~reply:(fun line ->
      Mutex.lock c.c_lock;
      c.c_replies <- c.c_replies @ [ line ];
      Mutex.unlock c.c_lock)

let replies c =
  Mutex.lock c.c_lock;
  let r = c.c_replies in
  Mutex.unlock c.c_lock;
  r

(* Poll (rather than block) so a daemon bug cannot hang the suite. *)
let await ?(timeout = 60.) c n =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let got = replies c in
    if List.length got >= n then got
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %d replies (got %d)" n (List.length got)
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let await_inflight ?(timeout = 60.) server n =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if (Dic.Serve.stats server).Dic.Serve.inflight >= n then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %d in-flight request(s)" n
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Reply dissection                                                    *)

let parse_reply line =
  match Dic.Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e

let jstr k v = Option.bind (Dic.Json.member k v) Dic.Json.str
let jint k v = Option.bind (Dic.Json.member k v) Dic.Json.int
let jbool k v = Option.bind (Dic.Json.member k v) Dic.Json.bool
let status v = Option.value ~default:"?" (jstr "status" v)
let field k v = Option.value ~default:(-1) (jint k v)

let by_status lines =
  List.map (fun l -> status (parse_reply l)) lines |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Concurrency: replies byte-identical to one-shot at every worker      *)
(* count                                                               *)

let test_concurrent_clients_match_one_shot () =
  let src = workload_cif () in
  let expected = one_shot_text src in
  let request = Dic.Json.to_string (Dic.Json.Obj [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str src) ]) in
  List.iter
    (fun workers ->
      let server = Dic.Serve.create ~workers rules in
      let clients = List.init 4 (fun _ -> client ()) in
      let conns = List.map (mock_conn server) clients in
      List.iter (fun conn -> Dic.Serve.submit server conn request) conns;
      List.iter
        (fun c ->
          match await c 1 with
          | [ line ] ->
            let v = parse_reply line in
            Alcotest.(check string) "status ok" "ok" (status v);
            Alcotest.(check (option string))
              (Printf.sprintf "report bytes at workers=%d" workers)
              (Some expected) (jstr "report" v)
          | other -> Alcotest.failf "expected 1 reply, got %d" (List.length other))
        clients;
      let s = Dic.Serve.stats server in
      Alcotest.(check int) "served all four" 4 s.Dic.Serve.served;
      Alcotest.(check int) "nothing cancelled" 0 s.Dic.Serve.cancelled;
      Alcotest.(check int) "live workers" workers s.Dic.Serve.workers;
      Dic.Serve.shutdown server;
      Alcotest.(check int) "workers joined" 0 (Dic.Serve.stats server).Dic.Serve.workers)
    [ 1; 4 ]

(* The merged multi-deck report is held to the same bar: identical
   bytes from every worker count, and from concurrent clients. *)
let test_multideck_replies_match_at_every_worker_count () =
  let src = workload_cif () in
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
  let reports =
    List.map
      (fun workers ->
        let server = Dic.Serve.create ~workers rules in
        let clients = List.init 3 (fun _ -> client ()) in
        let conns = List.map (mock_conn server) clients in
        List.iter (fun conn -> Dic.Serve.submit server conn request) conns;
        let texts =
          List.map
            (fun c ->
              match await c 1 with
              | [ line ] ->
                let v = parse_reply line in
                Alcotest.(check string) "status ok" "ok" (status v);
                Option.value ~default:"" (jstr "report" v)
              | other -> Alcotest.failf "expected 1 reply, got %d" (List.length other))
            clients
        in
        Dic.Serve.shutdown server;
        (match texts with
        | first :: rest ->
          List.iter
            (Alcotest.(check string)
               (Printf.sprintf "clients agree at workers=%d" workers)
               first)
            rest;
          first
        | [] -> Alcotest.fail "no replies"))
      [ 1; 4 ]
  in
  match reports with
  | [ w1; w4 ] ->
    Alcotest.(check string) "merged report identical at workers 1 and 4" w1 w4;
    Alcotest.(check bool) "membership annotations present" true
      (Astring_contains.contains w1 "[decks:")
  | _ -> Alcotest.fail "expected two worker counts"

(* A deck-set reply's "sarif" member is the CLI's [--sarif] document:
   both come from [Engine.sarif] over the merged view. *)
let test_multideck_sarif_is_engine_sarif () =
  let src = workload_cif () in
  let strict =
    { rules with Tech.Rules.width_metal = 4 * lambda; Tech.Rules.name = "strict" }
  in
  let decks = [ ("base", rules); ("strict", strict) ] in
  let request =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("cif", Dic.Json.Str src); ("lint", Dic.Json.Bool true);
           ("sarif", Dic.Json.Bool true);
           ("decks",
            Dic.Json.Arr
              (List.map
                 (fun (label, r) ->
                   Dic.Json.Obj
                     [ ("label", Dic.Json.Str label);
                       ("rules", Dic.Json.Str (Tech.Rules.to_string r)) ])
                 decks)) ])
  in
  let reply = parse_reply (Dic.Serve.handle_line (Dic.Serve.create rules) request) in
  let served =
    match Dic.Json.member "sarif" reply with
    | Some v -> Dic.Json.to_string v
    | None -> Alcotest.fail "reply has no sarif member"
  in
  (* Parsed from text like serve parses them, so rule positions match. *)
  let deck (label, r) =
    match Tech.Rules.of_string (Tech.Rules.to_string r) with
    | Ok r -> Dic.Engine.deck ~label r
    | Error msg -> Alcotest.fail msg
  in
  let engine =
    Dic.Engine.with_lint (Dic.Engine.create ~decks:(List.map deck decks) rules) true
  in
  match Dic.Engine.check_string engine src with
  | Error e -> Alcotest.fail e
  | Ok multi ->
    Alcotest.(check bool) "relations present" true
      (multi.Dic.Engine.merged.Dic.Multireport.relations <> []);
    Alcotest.(check string) "sarif member = Engine.sarif ~view:`Merged"
      (Dic.Json.to_string (Dic.Engine.sarif ~view:`Merged ~uri:"inline" multi))
      served

(* ------------------------------------------------------------------ *)
(* Warm-cache state transitions across requests                        *)

let test_warm_transitions_across_requests () =
  with_cache_dir (fun dir ->
      let server = Dic.Serve.create ~workers:1 ~cache_dir:dir rules in
      let c = client () in
      let conn = mock_conn server c in
      let req id = Dic.Json.to_string (Dic.Json.Obj [ ("id", Dic.Json.Num id); ("cif", Dic.Json.Str (workload_cif ())) ]) in
      Dic.Serve.submit server conn (req 1.);
      let r1 = parse_reply (List.nth (await c 1) 0) in
      Alcotest.(check int) "first request computes everything" 0
        (field "symbols_reused" r1);
      Dic.Serve.submit server conn (req 2.);
      let r2 = parse_reply (List.nth (await c 2) 1) in
      Alcotest.(check int) "second request reuses every definition"
        (field "symbols_total" r2) (field "symbols_reused" r2);
      Alcotest.(check (option string)) "warm report byte-identical"
        (jstr "report" r1) (jstr "report" r2);
      Dic.Serve.shutdown server)

(* ------------------------------------------------------------------ *)
(* Cancellation: superseded ids, queued and in-flight                  *)

let test_superseded_id_inflight () =
  let server = Dic.Serve.create ~workers:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  let expected = one_shot_text (workload_cif ()) in
  (* Request "a" v1: stalled in the worker so the supersession lands
     while it is in flight. *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj
          [ ("id", Dic.Json.Str "a"); ("cif", Dic.Json.Str (clean_cif ()));
            ("sleep_ms", Dic.Json.Num 300.) ]));
  await_inflight server 1;
  (* Request "a" v2: new CIF under the same id — the editor re-checked
     the buffer.  Only v2 may answer with a report. *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("id", Dic.Json.Str "a"); ("cif", Dic.Json.Str (workload_cif ())) ]));
  let got = await c 2 in
  Alcotest.(check (list string)) "one cancelled, one ok" [ "cancelled"; "ok" ]
    (by_status got);
  List.iter
    (fun line ->
      let v = parse_reply line in
      if status v = "ok" then
        Alcotest.(check (option string)) "the surviving reply is v2's report"
          (Some expected) (jstr "report" v)
      else
        Alcotest.(check (option bool)) "cancelled is not ok" (Some false) (jbool "ok" v))
    got;
  let s = Dic.Serve.stats server in
  Alcotest.(check int) "exactly one cancellation counted" 1 s.Dic.Serve.cancelled;
  Alcotest.(check int) "exactly one request served" 1 s.Dic.Serve.served;
  Dic.Serve.shutdown server

let test_superseded_id_queued () =
  let server = Dic.Serve.create ~workers:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  (* Block the only worker with an anonymous request so everything
     with an id stays queued. *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("cif", Dic.Json.Str (clean_cif ())); ("sleep_ms", Dic.Json.Num 300.) ]));
  await_inflight server 1;
  let req () =
    Dic.Json.to_string
      (Dic.Json.Obj [ ("id", Dic.Json.Str "b"); ("cif", Dic.Json.Str (workload_cif ())) ])
  in
  Dic.Serve.submit server conn (req ());
  Dic.Serve.submit server conn (req ());
  (* The superseded copy must be answered "cancelled" without ever
     being checked: it was still in the queue. *)
  let got = await c 3 in
  Alcotest.(check (list string)) "blocker + cancelled + ok" [ "cancelled"; "ok"; "ok" ]
    (by_status got);
  let s = Dic.Serve.stats server in
  Alcotest.(check int) "one cancellation" 1 s.Dic.Serve.cancelled;
  Alcotest.(check int) "blocker and v2 served" 2 s.Dic.Serve.served;
  Dic.Serve.shutdown server

(* ------------------------------------------------------------------ *)
(* Backpressure                                                        *)

let test_backpressure_overload () =
  let server = Dic.Serve.create ~workers:1 ~max_queue:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  let req id sleep =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("id", Dic.Json.Num (float_of_int id)); ("cif", Dic.Json.Str (clean_cif ()));
           ("sleep_ms", Dic.Json.Num sleep) ])
  in
  Dic.Serve.submit server conn (req 1 300.);
  await_inflight server 1;
  (* Worker busy, queue bound 1: the second fills the queue, the third
     and fourth are refused synchronously. *)
  Dic.Serve.submit server conn (req 2 0.);
  Dic.Serve.submit server conn (req 3 0.);
  Dic.Serve.submit server conn (req 4 0.);
  let immediate = by_status (replies c) in
  Alcotest.(check (list string)) "refusals are synchronous" [ "overloaded"; "overloaded" ]
    immediate;
  let got = await c 4 in
  Alcotest.(check (list string)) "two served, two refused"
    [ "ok"; "ok"; "overloaded"; "overloaded" ] (by_status got);
  let s = Dic.Serve.stats server in
  Alcotest.(check int) "overload counter" 2 s.Dic.Serve.overloaded;
  Alcotest.(check int) "served counter" 2 s.Dic.Serve.served;
  Dic.Serve.shutdown server

(* ------------------------------------------------------------------ *)
(* A malformed line mid-stream must not take the daemon down           *)

let test_malformed_line_mid_stream () =
  let server = Dic.Serve.create ~workers:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  let good id =
    Dic.Json.to_string
      (Dic.Json.Obj [ ("id", Dic.Json.Num id); ("cif", Dic.Json.Str (clean_cif ())) ])
  in
  Dic.Serve.submit server conn (good 1.);
  Dic.Serve.submit server conn "{this is not json";
  Dic.Serve.submit server conn (good 2.);
  let got = await c 3 in
  Alcotest.(check (list string)) "stream survives the bad line"
    [ "error"; "ok"; "ok" ] (by_status got);
  let bad = List.find (fun l -> status (parse_reply l) = "error") got in
  Alcotest.(check bool) "error names the parse failure" true
    (match jstr "error" (parse_reply bad) with
    | Some msg -> String.length msg >= 11 && String.sub msg 0 11 = "bad request"
    | None -> false);
  Alcotest.(check int) "both good requests served" 2
    (Dic.Serve.stats server).Dic.Serve.served;
  Dic.Serve.shutdown server

(* ------------------------------------------------------------------ *)
(* Crash at request N; a restarted daemon recovers warm state from     *)
(* disk                                                                *)

let test_crash_and_restart_recovers_warm_cache () =
  with_cache_dir (fun dir ->
      let src = workload_cif () in
      let req = Dic.Json.to_string (Dic.Json.Obj [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str src) ]) in
      (* Daemon #1 answers one request and then "crashes": abandoned
         without any shutdown, so only the per-check cache writes made
         it to disk. *)
      let crashed = Dic.Serve.create ~workers:1 ~cache_dir:dir rules in
      let c1 = client () in
      Dic.Serve.submit crashed (mock_conn crashed c1) req;
      let r1 = parse_reply (List.nth (await c1 1) 0) in
      Alcotest.(check string) "first daemon served cold" "ok" (status r1);
      Alcotest.(check int) "cold: nothing from disk" 0 (field "defs_from_disk" r1);
      (* Daemon #2 over the same directory: its first reply must
         already be warm, and byte-identical. *)
      let server = Dic.Serve.create ~workers:1 ~cache_dir:dir rules in
      let c2 = client () in
      let conn2 = mock_conn server c2 in
      Dic.Serve.submit server conn2 req;
      let r2 = parse_reply (List.nth (await c2 1) 0) in
      Alcotest.(check bool) "restart recovered definitions from disk" true
        (field "defs_from_disk" r2 > 0);
      Alcotest.(check int) "restart reuses every definition"
        (field "symbols_total" r2) (field "symbols_reused" r2);
      Alcotest.(check bool) "restart recovered the memo" true
        (field "memo_loaded" r2 > 0);
      Alcotest.(check (option string)) "warm restart report byte-identical"
        (jstr "report" r1) (jstr "report" r2);
      (* Orderly shutdown handshake on daemon #2. *)
      Dic.Serve.submit server conn2
        (Dic.Json.to_string
           (Dic.Json.Obj [ ("id", Dic.Json.Num 9.); ("shutdown", Dic.Json.Bool true) ]));
      let ack = parse_reply (List.nth (await c2 2) 1) in
      Alcotest.(check string) "shutdown acknowledged" "shutdown" (status ack);
      Alcotest.(check (option bool)) "ack is ok" (Some true) (jbool "ok" ack);
      Alcotest.(check (option int)) "ack reports requests served" (Some 1)
        (jint "served" ack);
      Alcotest.(check int) "workers joined" 0 (Dic.Serve.stats server).Dic.Serve.workers;
      (* The daemon is gone: later submissions are refused, not queued. *)
      Dic.Serve.submit server conn2 req;
      let late = parse_reply (List.nth (await c2 3) 2) in
      Alcotest.(check string) "post-shutdown refusal" "shutdown" (status late);
      Alcotest.(check (option bool)) "refusal is not ok" (Some false) (jbool "ok" late))

(* ------------------------------------------------------------------ *)
(* lint, lint_werror, and per-code counts in the reply                 *)

let ask_clean server =
  parse_reply
    (Dic.Serve.handle_line server
       (Dic.Json.to_string
          (Dic.Json.Obj
             [ ( "cif",
                 Dic.Json.Str (Cif.Print.to_string (Layoutgen.Cells.grid ~lambda ~nx:1 ~ny:1)) );
               ("lint", Dic.Json.Bool true) ])))

let test_lint_counts_and_werror () =
  let server = Dic.Serve.create rules in
  let src = orphan_cif () in
  let ask extra =
    let reply =
      Dic.Serve.handle_line server
        (Dic.Json.to_string (Dic.Json.Obj (("cif", Dic.Json.Str src) :: extra)))
    in
    parse_reply reply
  in
  (* No lint: no lint_counts member at all. *)
  let plain = ask [] in
  Alcotest.(check string) "clean without lint" "ok" (status plain);
  Alcotest.(check int) "exit 0 without lint" 0 (field "exit" plain);
  Alcotest.(check bool) "no lint_counts without lint" true
    (Dic.Json.member "lint_counts" plain = None);
  (* lint: D003 fires as a warning; counts surface, exit stays 0. *)
  let linted = ask [ ("lint", Dic.Json.Bool true) ] in
  Alcotest.(check int) "lint alone keeps exit 0" 0 (field "exit" linted);
  (match Dic.Json.member "lint_counts" linted with
  | Some counts ->
    Alcotest.(check (option int)) "D003 counted once" (Some 1) (jint "D003" counts)
  | None -> Alcotest.fail "lint reply lost its lint_counts");
  (* lint_werror implies lint and turns the finding into exit 1. *)
  let strict = ask [ ("lint_werror", Dic.Json.Bool true) ] in
  Alcotest.(check int) "lint_werror exits 1" 1 (field "exit" strict);
  Alcotest.(check (option bool)) "still a successful check" (Some true)
    (jbool "ok" strict);
  (match Dic.Json.member "lint_counts" strict with
  | Some counts ->
    Alcotest.(check (option int)) "lint_werror implies lint" (Some 1) (jint "D003" counts)
  | None -> Alcotest.fail "lint_werror reply lost its lint_counts");
  (* A lint-clean design under lint reports an empty counts object. *)
  let clean = ask_clean server in
  Alcotest.(check bool) "clean design: empty lint_counts" true
    (Dic.Json.member "lint_counts" clean = Some (Dic.Json.Obj []))

(* ------------------------------------------------------------------ *)
(* Telemetry: the admin surface, stats-bearing refusals and acks,      *)
(* per-request trace replies, event-log reconciliation, and the        *)
(* determinism bar with every telemetry feature switched on            *)

let jmem = Dic.Json.member

let test_admin_stats_and_health () =
  let server = Dic.Serve.create ~workers:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str (clean_cif ())) ]));
  ignore (await c 1);
  (* stats: answered synchronously, every canonical member present. *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("id", Dic.Json.Str "s"); ("admin", Dic.Json.Str "stats") ]));
  let sr = parse_reply (List.nth (await c 2) 1) in
  Alcotest.(check string) "stats status" "stats" (status sr);
  Alcotest.(check (option bool)) "stats ok" (Some true) (jbool "ok" sr);
  (match jmem "stats" sr with
  | None -> Alcotest.fail "stats reply has no stats member"
  | Some snap ->
    List.iter
      (fun k -> if jmem k snap = None then Alcotest.failf "snapshot lost %S" k)
      [ "uptime_s"; "workers"; "queue"; "requests"; "rps"; "latency_ms";
        "wait_ms"; "service_ms"; "queue_depth"; "cache"; "workers_busy" ];
    (match jmem "requests" snap with
    | Some reqs ->
      Alcotest.(check (option int)) "one request served" (Some 1) (jint "served" reqs);
      Alcotest.(check (option int)) "one request accepted" (Some 1)
        (jint "accepted" reqs)
    | None -> Alcotest.fail "snapshot lost its requests member"));
  (* health: "ok" while live... *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string (Dic.Json.Obj [ ("admin", Dic.Json.Str "health") ]));
  let hr = parse_reply (List.nth (await c 3) 2) in
  Alcotest.(check string) "health status" "health" (status hr);
  Alcotest.(check (option string)) "healthy while live" (Some "ok") (jstr "health" hr);
  Alcotest.(check bool) "health reports workers" true (field "workers" hr > 0);
  (* ...unknown admin verbs are refused, not crashed on... *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string (Dic.Json.Obj [ ("admin", Dic.Json.Str "reboot") ]));
  let ur = parse_reply (List.nth (await c 4) 3) in
  Alcotest.(check string) "unknown admin refused" "error" (status ur);
  (* ...and health turns "draining" once shutdown has begun: the admin
     surface outlives the pool. *)
  Dic.Serve.shutdown server;
  Dic.Serve.submit server conn
    (Dic.Json.to_string (Dic.Json.Obj [ ("admin", Dic.Json.Str "health") ]));
  let dr = parse_reply (List.nth (await c 5) 4) in
  Alcotest.(check (option string)) "draining after shutdown" (Some "draining")
    (jstr "health" dr)

(* A hub that has served nothing still answers every window member,
   zero-filled: the summary [Metrics.window_summary] gives an empty
   window. *)
let test_fresh_hub_windows_zeroed () =
  let snap =
    Dic.Telemetry.snapshot (Dic.Telemetry.create ()) ~queued:0 ~inflight:0 ~served:0
      ~cancelled:0 ~overloaded:0 ~workers:1 ~max_queue:1
  in
  match jmem "latency_ms" snap with
  | Some (Dic.Json.Obj members) ->
    Alcotest.(check (list string)) "the seven summary members"
      [ "count"; "len"; "mean"; "max"; "p50"; "p95"; "p99" ]
      (List.map fst members);
    List.iter
      (fun (k, v) -> Alcotest.(check (option (float 0.))) k (Some 0.) (Dic.Json.num v))
      members
  | _ -> Alcotest.fail "snapshot has no latency_ms object"

let test_refusals_and_ack_carry_stats () =
  let server = Dic.Serve.create ~workers:1 ~max_queue:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  let req id sleep =
    Dic.Json.to_string
      (Dic.Json.Obj
         [ ("id", Dic.Json.Num (float_of_int id)); ("cif", Dic.Json.Str (clean_cif ()));
           ("sleep_ms", Dic.Json.Num sleep) ])
  in
  Dic.Serve.submit server conn (req 1 300.);
  await_inflight server 1;
  Dic.Serve.submit server conn (req 2 0.);
  Dic.Serve.submit server conn (req 3 0.);
  (* The refusal is synchronous and explains itself: daemon request id
     plus the counters that justify the verdict. *)
  let refusal = parse_reply (List.nth (replies c) 0) in
  Alcotest.(check string) "refused" "overloaded" (status refusal);
  Alcotest.(check (option int)) "refusal reports queue depth" (Some 1)
    (jint "queued" refusal);
  Alcotest.(check bool) "refusal names its request" true (field "req" refusal > 0);
  Alcotest.(check bool) "refusal reports served so far" true
    (field "served" refusal >= 0);
  ignore (await c 3);
  (* The shutdown ack reports all five pool counters. *)
  let ack =
    parse_reply
      (Dic.Serve.handle_line server
         (Dic.Json.to_string (Dic.Json.Obj [ ("shutdown", Dic.Json.Bool true) ])))
  in
  Alcotest.(check string) "ack status" "shutdown" (status ack);
  List.iter
    (fun k -> if jint k ack = None then Alcotest.failf "ack lost %S" k)
    [ "served"; "cancelled"; "overloaded"; "queued"; "inflight" ];
  Alcotest.(check (option int)) "ack served" (Some 2) (jint "served" ack);
  Alcotest.(check (option int)) "ack overloaded" (Some 1) (jint "overloaded" ack)

let test_trace_flag_embeds_request_trace () =
  let server = Dic.Serve.create ~workers:1 rules in
  let c = client () in
  let conn = mock_conn server c in
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj
          [ ("id", Dic.Json.Num 1.); ("cif", Dic.Json.Str (workload_cif ()));
            ("trace", Dic.Json.Bool true) ]));
  let r = parse_reply (List.nth (await c 1) 0) in
  Alcotest.(check string) "traced request still ok" "ok" (status r);
  Alcotest.(check bool) "reply names its request" true (field "req" r > 0);
  (match jmem "trace" r with
  | None -> Alcotest.fail "opted-in reply has no trace member"
  | Some tr -> (
    match jmem "traceEvents" tr with
    | Some (Dic.Json.Arr events) ->
      let names = List.filter_map (jstr "name") events in
      Alcotest.(check bool) "trace records the queued span" true
        (List.mem "queued" names);
      (* The engine's stage spans ride along.  (The enclosing "request"
         span closes only after the reply is serialized, so it lands in
         the daemon-level merged trace, not the embedded copy.) *)
      Alcotest.(check bool) "trace carries the engine stages" true
        (List.length names > 1)
    | _ -> Alcotest.fail "trace member is not a Chrome trace document"));
  (* Without the flag the reply stays lean: the daemon-level trace
     collection never grows replies. *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("id", Dic.Json.Num 2.); ("cif", Dic.Json.Str (workload_cif ())) ]));
  let r2 = parse_reply (List.nth (await c 2) 1) in
  Alcotest.(check bool) "no trace member without the flag" true
    (jmem "trace" r2 = None);
  Dic.Serve.shutdown server

(* Event-log accounting over a mixed history: every accepted request
   ends in exactly one terminal event, refusals and bad lines are
   logged without being accepted, and the lifecycle brackets match. *)
let test_event_log_reconciliation () =
  let log_lock = Mutex.create () in
  let log = ref [] in
  let sink line =
    Mutex.lock log_lock;
    log := line :: !log;
    Mutex.unlock log_lock
  in
  let telemetry =
    Dic.Telemetry.create ~slow_ms:0. ~event_sink:sink ~collect_traces:true ()
  in
  let server = Dic.Serve.create ~workers:1 ~max_queue:2 ~telemetry rules in
  let c = client () in
  let conn = mock_conn server c in
  (* A blocker in flight, a queued request superseded into a
     cancellation, an overload refusal, and a malformed line. *)
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj
          [ ("cif", Dic.Json.Str (clean_cif ())); ("sleep_ms", Dic.Json.Num 300.) ]));
  await_inflight server 1;
  let named () =
    Dic.Json.to_string
      (Dic.Json.Obj [ ("id", Dic.Json.Str "x"); ("cif", Dic.Json.Str (workload_cif ())) ])
  in
  Dic.Serve.submit server conn (named ());
  Dic.Serve.submit server conn (named ());
  Dic.Serve.submit server conn
    (Dic.Json.to_string
       (Dic.Json.Obj [ ("id", Dic.Json.Str "y"); ("cif", Dic.Json.Str (clean_cif ())) ]));
  Dic.Serve.submit server conn "{oops";
  ignore (await c 5);
  Dic.Serve.shutdown server;
  let events =
    Mutex.lock log_lock;
    let lines = List.rev !log in
    Mutex.unlock log_lock;
    List.map
      (fun line ->
        match Dic.Json.parse line with
        | Ok v -> v
        | Error e -> Alcotest.failf "unparseable event line %S: %s" line e)
      lines
  in
  (* Schema floor: every entry has "event" and "ts_ms". *)
  List.iter
    (fun e ->
      if jstr "event" e = None then Alcotest.fail "event line without event kind";
      if jmem "ts_ms" e = None then Alcotest.fail "event line without timestamp")
    events;
  let kind e = Option.value ~default:"?" (jstr "event" e) in
  let count k = List.length (List.filter (fun e -> kind e = k) events) in
  (* Reconciliation: accepted == finished + cancelled. *)
  Alcotest.(check int) "three accepted" 3 (count "accepted");
  Alcotest.(check int) "accepted = finished + cancelled" (count "accepted")
    (count "finished" + count "cancelled");
  Alcotest.(check int) "one cancellation logged" 1 (count "cancelled");
  Alcotest.(check int) "one overload logged" 1 (count "overloaded");
  Alcotest.(check int) "the bad line was logged as rejected" 1 (count "rejected");
  (* slow_ms 0.: every finished request also writes a slow entry. *)
  Alcotest.(check int) "slow entries at slow_ms 0" (count "finished") (count "slow");
  (* Per-request ordering: each accepted req has exactly one terminal
     event, and acceptance precedes it. *)
  let reqs_of k =
    List.filter_map (fun e -> if kind e = k then jint "req" e else None) events
  in
  let terminals = List.sort compare (reqs_of "finished" @ reqs_of "cancelled") in
  Alcotest.(check (list int)) "every accepted req terminates once"
    (List.sort compare (reqs_of "accepted")) terminals;
  List.iter
    (fun req ->
      let index k =
        let rec go i = function
          | [] -> Alcotest.failf "req %d lost its %S event" req k
          | e :: rest ->
            if kind e = k && jint "req" e = Some req then i else go (i + 1) rest
        in
        go 0 events
      in
      let accepted = index "accepted" in
      let terminal =
        List.length events
        - 1
        - (let rec go i = function
             | [] -> Alcotest.failf "req %d never terminated" req
             | e :: rest ->
               if (kind e = "finished" || kind e = "cancelled")
                  && jint "req" e = Some req
               then i
               else go (i + 1) rest
           in
           go 0 (List.rev events))
      in
      Alcotest.(check bool)
        (Printf.sprintf "req %d accepted before terminal" req)
        true (accepted < terminal))
    terminals;
  (* Lifecycle bracket: shutdown_begin then shutdown, once each. *)
  Alcotest.(check int) "one shutdown_begin" 1 (count "shutdown_begin");
  Alcotest.(check int) "one shutdown" 1 (count "shutdown");
  (* The daemon-level trace collected something, starting from the
     queued span. *)
  match jmem "traceEvents" (Dic.Trace.chrome (Dic.Telemetry.merged_trace telemetry)) with
  | Some (Dic.Json.Arr evs) ->
    Alcotest.(check bool) "merged trace is non-empty" true (evs <> []);
    Alcotest.(check bool) "merged trace has queued spans" true
      (List.exists (fun e -> jstr "name" e = Some "queued") evs)
  | _ -> Alcotest.fail "merged trace lost traceEvents"

(* The determinism bar with everything on: event log, trace collection,
   slow threshold 0, and per-request trace embedding — report bytes
   stay byte-identical to one-shot dicheck at every worker count. *)
let test_reports_invariant_under_telemetry () =
  let src = workload_cif () in
  let expected = one_shot_text src in
  List.iter
    (fun workers ->
      let telemetry =
        Dic.Telemetry.create ~slow_ms:0. ~event_sink:(fun _ -> ())
          ~collect_traces:true ()
      in
      let server = Dic.Serve.create ~workers ~telemetry rules in
      let c = client () in
      let conn = mock_conn server c in
      let req i =
        Dic.Json.to_string
          (Dic.Json.Obj
             [ ("id", Dic.Json.Num (float_of_int i)); ("cif", Dic.Json.Str src);
               ("trace", Dic.Json.Bool true) ])
      in
      List.iter (fun i -> Dic.Serve.submit server conn (req i)) [ 1; 2; 3; 4 ];
      let got = await c 4 in
      List.iter
        (fun line ->
          let v = parse_reply line in
          Alcotest.(check string) "telemetry-on request ok" "ok" (status v);
          Alcotest.(check (option string))
            (Printf.sprintf "telemetry-on report bytes at workers=%d" workers)
            (Some expected) (jstr "report" v))
        got;
      Dic.Serve.shutdown server)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ( "concurrency",
        [ Alcotest.test_case "clients match one-shot" `Quick
            test_concurrent_clients_match_one_shot;
          Alcotest.test_case "warm transitions" `Quick
            test_warm_transitions_across_requests;
          Alcotest.test_case "multi-deck replies match at every worker count"
            `Quick test_multideck_replies_match_at_every_worker_count;
          Alcotest.test_case "multi-deck sarif = engine sarif" `Quick
            test_multideck_sarif_is_engine_sarif ] );
      ( "cancellation",
        [ Alcotest.test_case "superseded in flight" `Quick test_superseded_id_inflight;
          Alcotest.test_case "superseded while queued" `Quick test_superseded_id_queued ] );
      ( "robustness",
        [ Alcotest.test_case "backpressure" `Quick test_backpressure_overload;
          Alcotest.test_case "malformed mid-stream" `Quick
            test_malformed_line_mid_stream ] );
      ( "lifecycle",
        [ Alcotest.test_case "crash and restart" `Quick
            test_crash_and_restart_recovers_warm_cache ] );
      ( "lint",
        [ Alcotest.test_case "lint counts and werror" `Quick
            test_lint_counts_and_werror ] );
      ( "telemetry",
        [ Alcotest.test_case "admin stats and health" `Quick
            test_admin_stats_and_health;
          Alcotest.test_case "fresh hub windows zeroed" `Quick
            test_fresh_hub_windows_zeroed;
          Alcotest.test_case "refusals and ack carry stats" `Quick
            test_refusals_and_ack_carry_stats;
          Alcotest.test_case "trace flag embeds request trace" `Quick
            test_trace_flag_embeds_request_trace;
          Alcotest.test_case "event log reconciles" `Quick
            test_event_log_reconciliation;
          Alcotest.test_case "reports invariant under telemetry" `Quick
            test_reports_invariant_under_telemetry ] ) ]

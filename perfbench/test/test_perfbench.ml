(* The benchmark's generators: the hierarchical PLA is the flat plane
   regrouped, and the edit sequence is a pure function of the seed that
   changes one definition per step. *)

open Perfbench_gen

let rules = Tech.Rules.nmos ()
let lambda = rules.Tech.Rules.lambda

(* A design as the multiset of its instantiated geometry, paths dropped. *)
let flat_geometry file =
  List.sort compare
    (List.map
       (fun (e : Flatdrc.Flatten.elt) ->
         (e.Flatdrc.Flatten.layer, List.sort compare e.Flatdrc.Flatten.rects))
       (Flatdrc.Flatten.file file))

let random_bits ~rows ~cols ~seed =
  let st = Random.State.make [| seed |] in
  Array.init rows (fun _ -> Array.init cols (fun _ -> Random.State.bool st))

let test_flattens_like_plane () =
  List.iter
    (fun program ->
      Alcotest.(check bool)
        "same instantiated geometry" true
        (flat_geometry (Workload.pla_hier ~lambda program)
        = flat_geometry (Layoutgen.Pla.plane ~lambda program)))
    [ Layoutgen.Pla.random_program ~rows:4 ~cols:6 ~seed:3;
      random_bits ~rows:5 ~cols:7 ~seed:11;
      random_bits ~rows:1 ~cols:3 ~seed:2 ]

let test_edits_seeded () =
  let draw seed = Workload.edits ~rows:8 ~cols:16 ~seed 40 in
  let a = draw 5 in
  Random.self_init ();
  ignore (Random.int 1000);
  Alcotest.(check (list (pair int int))) "same seed, same edits" a (draw 5);
  Alcotest.(check bool) "another seed, other edits" true (a <> draw 6);
  Alcotest.(check (list (pair int int)))
    "a shorter run is a prefix" (List.filteri (fun i _ -> i < 10) a)
    (Workload.edits ~rows:8 ~cols:16 ~seed:5 10);
  Alcotest.(check int) "no crosspoint twice" 40 (List.length (List.sort_uniq compare a));
  List.iter
    (fun (r, c) -> Alcotest.(check bool) "in the plane" true (r >= 0 && r < 8 && c >= 0 && c < 16))
    a

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_edit_changes_one_definition () =
  let rows = 4 and cols = 6 and seed = 9 in
  let text program =
    Cif.Print.to_string
      (fst (Workload.salt_pla ~lambda ~seed program (Workload.pla_hier ~lambda program)))
  in
  let dir = "edit-cache" in
  remove_tree dir;
  let recheck program =
    match Dic.Engine.check_string (Dic.Engine.create ~cache_dir:dir rules) (text program) with
    | Ok multi -> snd (Dic.Engine.primary multi)
    | Error e -> Alcotest.fail e
  in
  let base = Layoutgen.Pla.random_program ~rows ~cols ~seed in
  ignore (recheck base);
  ignore
    (List.fold_left
       (fun program e ->
         let program = Workload.flip program e in
         let reuse = recheck program in
         Alcotest.(check int) "all but the edited row reused"
           (reuse.Dic.Engine.symbols_total - 1) reuse.Dic.Engine.symbols_reused;
         program)
       base
       (Workload.edits ~rows ~cols ~seed 6));
  remove_tree dir

let () =
  Alcotest.run "perfbench"
    [ ( "generators",
        [ Alcotest.test_case "pla-hier flattens like Pla.plane" `Quick test_flattens_like_plane;
          Alcotest.test_case "edit sequence depends only on the seed" `Quick test_edits_seeded;
          Alcotest.test_case "each edit changes one definition" `Quick
            test_edit_changes_one_definition ] ) ]

open Layoutgen

type kind = Pla_hier | Blocks_hier | Pla_edit

let kinds = [ Pla_hier; Blocks_hier; Pla_edit ]

let name = function
  | Pla_hier -> "pla-hier"
  | Blocks_hier -> "blocks-hier"
  | Pla_edit -> "pla-edit"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* Far above the fixed ids of the cell libraries (1-18, 100-101). *)
let row_id r = 1000 + r

let pla_hier ~lambda program =
  let flat = Pla.plane ~lambda program in
  let p = Pla.pitch * lambda in
  let row r =
    Builder.symbol ~id:(row_id r) ~name:(Printf.sprintf "row%d" r) []
      (Array.to_list
         (Array.mapi
            (fun c active ->
              Builder.call ~at:(c * p, 0) (if active then Pla.id_active else Pla.id_blank))
            program.(r)))
  in
  { flat with
    Cif.Ast.symbols = flat.Cif.Ast.symbols @ List.init (Array.length program) row;
    top_calls =
      List.init (Array.length program) (fun r -> Builder.call ~at:(0, r * p) (row_id r)) }

let rng ~seed tag = Random.State.make [| seed; tag |]

(* Injections sit 10 lambda right of the design's last column: clear of
   every rule's reach, so each one is seen alone.  The batch is about
   45 lambda tall. *)
let batch_beside ~lambda ~seed ~right ~height =
  let y = Random.State.int (rng ~seed 1) (max 1 (height - (45 * lambda))) in
  Inject.standard_batch ~lambda ~at:(right + (10 * lambda), y) ~step:(10 * lambda)

let salt_pla ~lambda ~seed program file =
  let rows = Array.length program in
  let cols = if rows = 0 then 0 else Array.length program.(0) in
  let p = Pla.pitch * lambda in
  Inject.apply file (batch_beside ~lambda ~seed ~right:(cols * p) ~height:(rows * p))

let blocks ~lambda ~seed ~nx ~ny =
  let st = rng ~seed 2 in
  let i = Random.State.int st nx and j = Random.State.int st ny in
  Inject.apply
    (Cells.grid_blocks ~lambda ~nx ~ny)
    (Inject.supply_short ~lambda
       ~cell_origin:(i * Cells.pitch_x * lambda, j * Cells.pitch_y * lambda)
     :: batch_beside ~lambda ~seed ~right:(nx * Cells.pitch_x * lambda)
          ~height:(ny * Cells.pitch_y * lambda))

(* A partial Fisher-Yates shuffle of the crosspoint indices. *)
let edits ~rows ~cols ~seed n =
  let total = rows * cols in
  if n > total then invalid_arg "Workload.edits: more edits than crosspoints";
  let st = rng ~seed 3 in
  let idx = Array.init total Fun.id in
  List.init n (fun k ->
      let j = k + Random.State.int st (total - k) in
      let v = idx.(j) in
      idx.(j) <- idx.(k);
      idx.(k) <- v;
      (v / cols, v mod cols))

let flip program (r, c) =
  let p = Array.map Array.copy program in
  p.(r).(c) <- not p.(r).(c);
  p

module Sclass = Sep_lattice.Sclass

type subject = { sub_name : string; clearance : Sclass.t; trusted : bool }

type obj = { obj_name : string; classification : Sclass.t }

type access =
  | Read
  | Write
  | Append

type verdict = { granted : bool; ss_ok : bool; star_ok : bool; by_trust : bool }

let subject ?(trusted = false) sub_name clearance = { sub_name; clearance; trusted }
let obj obj_name classification = { obj_name; classification }

let ss_property s o = Sclass.dominates s.clearance o.classification
let star_property s o = Sclass.dominates o.classification s.clearance

let decide s access o =
  let ss_ok = ss_property s o and star_ok = star_property s o in
  let need_ss, need_star =
    match access with
    | Read -> (true, false)
    | Write -> (true, true)
    | Append -> (false, true)
  in
  let star_met = star_ok || s.trusted in
  let granted = ((not need_ss) || ss_ok) && ((not need_star) || star_met) in
  let by_trust = granted && need_star && not star_ok in
  { granted; ss_ok; star_ok; by_trust }

let permitted s access o = (decide s access o).granted

let entity = "VM"

let maximum = 5_000

let seed = 20_210_414L (* ICDE 2021 *)

let client_regions () = Array.of_list Geonet.Region.default_five

let duration_ms ~quick ~full_min ~quick_min =
  60_000.0 *. if quick then quick_min else full_min

let samya_config variant = { Samya.Config.default with variant }

let window_ms ~quick = if quick then 30_000.0 else 60_000.0

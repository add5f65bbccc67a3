module dsmpm2/benchmark

go 1.24

require dsmpm2 v0.0.0

replace dsmpm2 => ../

module mvedsua/benchmark

go 1.22

require mvedsua v0.0.0

replace mvedsua => ../

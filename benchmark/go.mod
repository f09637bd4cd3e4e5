module icilk/benchmark

go 1.23

require icilk v0.0.0

replace icilk => ../

module bridge/benchmark

go 1.22

require bridge v0.0.0

replace bridge => ../

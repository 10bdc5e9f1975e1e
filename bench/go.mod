module aladdin/bench

go 1.22

require aladdin v0.0.0

replace aladdin => ../

package main

import (
	"fmt"

	"lib"
)

func main() {
	fmt.Println(lib.Used(), lib.NewShape().Area(), lib.Box[int]{}.Get(), lib.T{})
}

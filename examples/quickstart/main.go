// Quickstart: the paper's running example (§2.1, Figure 1) end to end.
//
// It builds a simulated world, deploys the v1 key-value store under the
// MVEDSUA controller, applies the v1→v2 dynamic update (which adds a
// type field to every entry and new typed commands), validates the new
// version against live traffic, promotes it, and commits — all while a
// client keeps getting answers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"mvedsua/internal/apps/tkv"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/sim"
)

func main() {
	// A world is a deterministic scheduler + virtual OS + controller.
	world := apptest.NewWorld(core.Config{
		BufferEntries: 256, // the MVE ring buffer (Figure 2)
	})

	// Deploy version 1 in single-leader mode (Figure 2, t0).
	world.C.Start(tkv.New("v1", false))

	world.S.Go("client", func(tk *sim.Task) {
		defer world.Finish()
		c := apptest.Connect(world.K, tk, tkv.Port)
		defer c.Close(tk)

		do := func(cmd string) {
			fmt.Printf("%-28s -> %s", cmd, c.Do(tk, cmd))
		}

		fmt.Println("== v1 serving ==")
		do("PUT balance 1000")
		do("GET balance")

		// Request the dynamic update (t1). MVEDSUA forks a follower,
		// transforms its state (every entry gains a type field), and
		// starts validating the new version against the old one.
		fmt.Println("\n== updating to v2 ==")
		if !world.C.Update(tkv.Update(tkv.UpdateOpts{})) {
			log.Fatal("update rejected")
		}
		for i := 0; i < 4; i++ {
			do("GET balance") // service continues throughout
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Println("stage:", world.C.Stage()) // outdated-leader

		// While the old version leads, its semantics are enforced: the
		// new typed command is rejected, and Figure 4's Rule 1 keeps
		// the follower in an equivalent state instead of diverging.
		do("PUT-number balance 1001")

		// Expose the new interface (t4), then finalize (t6).
		fmt.Println("\n== promoting v2 ==")
		world.C.Promote()
		for i := 0; i < 4; i++ {
			do("GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		world.C.Commit()
		fmt.Println("stage:", world.C.Stage())

		fmt.Println("\n== v2 serving, state preserved ==")
		do("TYPE balance") // migrated entries default to type string
		do("PUT-number visits 42")
		do("TYPE visits")
	})

	if err := world.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ntimeline:")
	for _, ev := range world.C.Timeline() {
		fmt.Printf("  %v\n", ev)
	}
}

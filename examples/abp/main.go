// ABP: the alternating bit protocol over deliberately lossy connectors.
// Shows the whole Plug-and-Play story on a classic protocol: a naive
// transfer over a lossy channel provably loses messages; the same
// connectors carrying the ABP retransmission discipline provably
// deliver everything, in order, exactly once.
package main

import (
	"fmt"
	"os"

	"pnp/internal/abp"
	"pnp/internal/checker"
	"pnp/internal/swp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "abp: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("=== Alternating bit protocol over lossy channels ===")
	fmt.Println()
	fmt.Println("Both the data path and the ack path use the library's lossy(1)")
	fmt.Println("buffer: any message in transit may be dropped.")
	fmt.Println()

	for _, payloads := range []int{1, 2, 3} {
		res, err := abp.Verify(abp.Config{Payloads: payloads}, nil, checker.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("payloads=%d\n", payloads)
		fmt.Printf("  in-order, exactly-once (safety): %s\n", res.Safety.Summary())
		fmt.Printf("  completion stays reachable (AG EF): %s\n", res.Delivery.Summary())
		if !res.Safety.OK || !res.Delivery.OK {
			return fmt.Errorf("protocol verification failed")
		}
	}

	fmt.Println()
	fmt.Println("Go-back-N sliding window (window = 2 frames in flight, dropping buffers):")
	sw, err := swp.Verify(swp.Config{Frames: 3, Window: 2}, nil, checker.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("  in-order, exactly-once (safety): %s\n", sw.Safety.Summary())
	fmt.Printf("  completion stays reachable (AG EF): %s\n", sw.Delivery.Summary())
	if !sw.Safety.OK || !sw.Delivery.OK {
		return fmt.Errorf("sliding window verification failed")
	}

	fmt.Println()
	fmt.Println("Contrast: without the protocol, the same lossy connectors fail the")
	fmt.Println("delivery goal (see TestNaiveTransferOverLossyChannelFails). The")
	fmt.Println("connector blocks did not change — the protocol in the components")
	fmt.Println("turned an unreliable channel into a reliable transfer.")
	return nil
}

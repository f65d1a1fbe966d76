// Distributed: runs the paper's hardware configuration on a real network —
// MBDS backends served over TCP on this machine, a controller reaching them
// through the communication bus — loads the University database across the
// cluster, queries it, and round-trips the database through a saved image.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"

	"mlds"
	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/mbdsnet"
	"mlds/internal/obs"
	"mlds/internal/univgen"
)

func main() {
	const backends = 3
	db, err := univgen.Generate(univgen.SmallConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Start the slaves: one TCP backend server per partition. The controller
	// assigns every database key, so the partitions need no key spaces of
	// their own. One shared registry collects every partition's counters for
	// the /metrics endpoint below.
	reg := obs.NewRegistry()
	var execs []mbds.Executor
	for i := 0; i < backends; i++ {
		store := kdb.NewStore(db.AB.Dir.Clone())
		srv, err := mbdsnet.Listen("127.0.0.1:0", store)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		srv.Instrument(reg, obs.L("backend", strconv.Itoa(i)))
		fmt.Printf("backend %d serving on %s\n", i, srv.Addr())
		rb, err := mbdsnet.Dial(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		defer rb.Close()
		execs = append(execs, rb)
	}

	// The ops endpoint: the whole cluster's metrics in Prometheus text
	// format, plus a health check.
	ops, err := mbdsnet.ServeOps("127.0.0.1:0", reg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer ops.Close()
	fmt.Printf("metrics: curl http://%s/metrics\n", ops.Addr())

	// The master: a controller whose backends live across the bus.
	kcfg := mbds.DefaultConfig(backends)
	kcfg.Metrics = reg
	kcfg.DBName = "university"
	sys, err := mbds.NewWithExecutors(db.AB.Dir, kcfg, execs)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	n, err := db.Load(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nloaded %d kernel records across the cluster\n", n)
	fmt.Printf("partition sizes over the bus: %v\n", sys.PartitionSizes())

	res, err := sys.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("student")},
		abdm.Predicate{Attr: "major", Op: abdm.OpEq, Val: abdm.String("Computer Science")},
	), "major"))
	if err != nil {
		log.Fatal(err)
	}
	keys := map[int64]bool{}
	for _, sr := range res.Records {
		if v, ok := sr.Rec.Get("major"); ok && !v.IsNull() {
			keys[int64(sr.ID)] = true
		}
	}
	fmt.Printf("CS student record copies retrieved from the cluster: %d\n", len(res.Records))

	// What the workload left in the cluster's counters.
	resp, err := http.Get("http://" + ops.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nfrom /metrics:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "mlds_server_batch_requests_total") ||
			strings.HasPrefix(line, "mlds_store_records{") {
			fmt.Println("  " + line)
		}
	}

	// Persistence: save the in-process engine's copy and restore it.
	engine := mlds.New(mlds.KernelWith(2))
	defer engine.Close()
	local, err := engine.CreateFunctional("university", mlds.UniversityDDL)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mlds.PopulateUniversity(local, mlds.SmallUniversity()); err != nil {
		log.Fatal(err)
	}
	var img bytes.Buffer
	if err := mlds.SaveDatabase(local, &img); err != nil {
		log.Fatal(err)
	}
	imgSize := img.Len()
	engine2 := mlds.New(mlds.KernelWith(4))
	defer engine2.Close()
	restored, err := mlds.RestoreDatabase(engine2, &img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsaved database image: %d bytes; restored %q with %d records on %d backends\n",
		imgSize, restored.Name, restored.Kernel.Len(), restored.Kernel.Backends())
}

// mldsbackend runs one MBDS backend as a network server: it holds a
// partition of a kernel database on this machine and executes the ABDL
// requests a remote controller sends over the bus — the slave half of the
// paper's hardware configuration.
//
// The schema is a Daplex file transformed on startup, so every backend of
// one database derives the same kernel directory independently.
//
// Usage:
//
//	mldsbackend -listen :9401                     # University schema
//	mldsbackend -listen :9402 -schema my.daplex
//
// The controller assigns every database key, so backends need no key space
// of their own.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"mlds/internal/daplex"
	"mlds/internal/kdb"
	"mlds/internal/mbdsnet"
	"mlds/internal/obs"
	"mlds/internal/univ"
	"mlds/internal/xform"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9401", "TCP listen address")
	schemaFile := flag.String("schema", "", "Daplex schema file (default: built-in University)")
	opsAddr := flag.String("ops", "", "HTTP address serving /metrics and /healthz (empty: disabled)")
	flag.Parse()

	src := univ.SchemaDDL
	if *schemaFile != "" {
		data, err := os.ReadFile(*schemaFile)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	fun, err := daplex.ParseSchema(src)
	if err != nil {
		fatal(err)
	}
	m, err := xform.FunToNet(fun)
	if err != nil {
		fatal(err)
	}
	ab, err := xform.DeriveAB(m)
	if err != nil {
		fatal(err)
	}

	srv, err := mbdsnet.Listen(*listen, kdb.NewStore(ab.Dir))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mldsbackend: serving schema %q on %s\n", fun.Name, srv.Addr())

	if *opsAddr != "" {
		reg := obs.NewRegistry()
		srv.Instrument(reg, obs.L("backend", srv.Addr()))
		ops, err := mbdsnet.ServeOps(*opsAddr, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer ops.Close()
		fmt.Printf("mldsbackend: metrics on http://%s/metrics\n", ops.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nmldsbackend: shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mldsbackend:", err)
	os.Exit(1)
}

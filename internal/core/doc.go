// Package core implements the paper's contribution — dynamic RESET
// voltage regulation (DRVR), partition RESET (PR) and upgraded DRVR
// (UDRVR) — together with the prior techniques it is evaluated against
// (DSGB, DSWD, D-BL, SCH, RBDL and the ora-mxm oracles), all behind one
// Scheme abstraction that the memory-system simulator consumes.
//
// A Scheme owns a calibrated voltage-level table (the charge pump's
// per-section and per-column-multiplexer Vrst levels), the mask
// transformations of PR and D-BL, and a memoized RESET-phase cost model
// built on the xpoint array solver. Costing a 64-byte line write is a
// cheap table-driven operation after the first few hundred distinct
// operations have been solved. Schemes built through one Solver share
// its Array per array configuration, its DRVR calibrations and the cost
// table of equal level tables.
package core

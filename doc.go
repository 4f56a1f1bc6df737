// Package mead is a from-scratch Go reproduction of "Proactive Recovery in
// Distributed CORBA Applications" (Pertet & Narasimhan, DSN 2004): the MEAD
// proactive-dependability framework, rebuilt on a purpose-written GIOP/IIOP
// mini-ORB with transparent connection interception, a totally-ordered
// group-communication substrate, a Naming Service, warm passive
// replication, a Recovery Manager, and the paper's Weibull memory-leak
// fault injector.
//
// The package exposes three layers:
//
//   - Building blocks — NewHub, NewNamingServer, NewReplica,
//     NewRecoveryManager, NewClient — to assemble a deployment by hand (see
//     ExampleNewRecoveryManager).
//   - Deployment — NewDeployment boots a complete system (hub + naming +
//     recovery manager + N replicas) in one call.
//   - Experiments — Run, RunTable1, RunThresholdSweep, RunFaultFree
//     regenerate the paper's Table 1 and Figures 3, 4 and 5.
//
// The five recovery strategies of the paper's Table 1 are the Scheme
// constants: ReactiveNoCache, ReactiveCache, NeedsAddressing,
// LocationForward and MeadMessage.
package mead

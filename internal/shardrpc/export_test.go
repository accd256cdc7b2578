package shardrpc

import "udi/internal/shard"

// NewStub hands the external test package the networked shard.Shard over
// one host address, as NewCoordinator builds it.
func NewStub(addr string) shard.Shard { return newStub(0, addr, CoordinatorOptions{}) }

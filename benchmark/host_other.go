//go:build !linux

package main

import "time"

// waiter sleeps until an instant; see host_linux.go for why Linux does not
// use time.Sleep.
type waiter struct{}

func newWaiter() *waiter { return &waiter{} }

func (w *waiter) until(t time.Time) { time.Sleep(time.Until(t)) }

func (w *waiter) close() {}

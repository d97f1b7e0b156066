//go:build !linux

package main

func filesystemOf(string) string { return "unknown" }

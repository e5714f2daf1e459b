package server

import "sqalpel/internal/repository"

// Store exposes the backing repository.
func (s *Server) Store() *repository.Store { return s.store }

let set_enabled (_ : bool) = ()
